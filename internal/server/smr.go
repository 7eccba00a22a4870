package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// State-machine replication of persistent objects (paper Section 4.1):
// operations on an object with rf > 1 reach every member of its replica
// group in one order, every member applies them in that order on its local
// copy, and the primary returns the result to the caller. The paper orders
// them with a Skeen-style total-order multicast across all objects; here
// the primary orders each object alone (DESIGN.md §5c). It gives every
// round of a ref a seq under the fence of the view its group came from,
// applies it, and sends one ACCEPT frame to each other member, which
// applies the ref's rounds strictly in seq order (its lane, see
// awaitTurn) and answers with that apply's outcome. Two rules make the
// primary's order the ref's only one: a member refuses a round fenced on
// another view than its own, and a node admits one coordinator's rounds
// per ref at a time (inflight.go). Different refs apply concurrently.
//
// There is one way to do that, the round (runRound): 1..N invocations on
// one object share one MsgID, one lease fence, one seq, one ACCEPT per
// member, one monitor acquisition at every replica, one WAL record and one
// fork check. A write is a round of one, run inline on its caller's
// goroutine under its caller's context, unless its ref's lane is full:
// then it queues and rides a later round with the writes queued beside it
// (lane.go). Every read-only ordering round is a round of one. An rf=1
// object's round has a group of one and sends nothing; only
// synchronization objects stay outside rounds.

// opResult is one invocation's outcome inside a round.
type opResult struct {
	results []any
	err     error
}

// roundOutcome is what one replica's in-order apply of a round produced.
type roundOutcome struct {
	res []opResult
	// version is the copy's apply version right after the round's last
	// invocation, and replays how many of its invocations were answered
	// from the at-most-once window instead of executing; both are captured
	// under the object monitor (see applyOrdered) and compared against the
	// members' finalResp before acking (see checkRound).
	version uint64
	replays int
	// commit is the round's WAL durability ticket (nil with the tier off
	// and for read-only rounds); the coordinator's ack waits on it.
	commit *durability.Commit
	// err is a round-level failure (undecodable payload, missing base
	// copy, fence, copy mid-transfer, a gap in the ref's order): no
	// invocation executed.
	err error
}

// position is where a copy stands in its ref's order: the fence of the
// view whose primary sequenced the last round it applied, and that round's
// seq. Every primary numbers a ref's rounds from 1 under each new fence.
type position struct {
	Fence, Seq uint64
}

// finalResp is a member's reply to an ACCEPT, sent once it has applied the
// round: the member copy's apply version immediately after that apply, and
// how many of the round's invocations it answered from its at-most-once
// window. Replicas of one object apply the same sequence, so for any given
// round every member's pair must agree with the coordinator's — a mismatch
// means one side ran the round on a copy with a different history and the
// round must not be acked (see checkRound).
type finalResp struct {
	Version uint64
	Replays int
}

// acceptMsg is the replication frame (KindAccept). ID names the round for
// dedup, the WAL record and the in-flight tracker; Ref is the object every
// invocation of Payload targets; At is the round's place in Ref's order:
// the fence of the view its group came from (membership.View.Fence) and
// its seq under it. A receiver whose installed view has another fence
// refuses the round: without the fence, an old and a new primary could
// both commit rounds for one object to overlapping groups and fork its
// lineage (two clients acknowledged the same counter value).
type acceptMsg struct {
	ID      totalorder.MsgID
	Ref     core.Ref
	At      position
	Payload []byte
}

// Control frames (DESIGN.md §5b). Each per-operation frame — ACCEPT here,
// the lease frames in lease.go — is a tag byte naming the frame followed by
// its fields in the tag codec's encodings (core.Append*): strings and byte
// slices length-prefixed, integers uvarint. There is no version and no
// fallback. A decoder accepts exactly its own tag and layout: a truncated
// frame, a field length past the end and a trailing byte are all errors.
// Decoders copy what they return, because the rpc server recycles a
// request's buffer once its handler returns while the WAL keeps an
// ACCEPT's payload until its flush.
const (
	frameAccept      byte = 'A' // MsgID, Ref, At.Fence, At.Seq, Payload
	frameAcceptReply byte = 'a' // finalResp: Version, Replays
)

// appendMsgID appends id's Origin and Seq; readMsgID reads them back.
func appendMsgID(dst []byte, id totalorder.MsgID) []byte {
	return binary.AppendUvarint(core.AppendString(dst, id.Origin), id.Seq)
}

func readMsgID(r *core.Reader) (id totalorder.MsgID, err error) {
	if id.Origin, err = r.Str(); err == nil {
		id.Seq, err = r.Uvarint()
	}
	return id, err
}

func (m acceptMsg) encode() []byte {
	b := core.NewFrame(frameAccept, len(m.ID.Origin)+len(m.Ref.Type)+len(m.Ref.Key)+len(m.Payload), 7)
	b = appendRef(appendMsgID(b, m.ID), m.Ref)
	b = binary.AppendUvarint(binary.AppendUvarint(b, m.At.Fence), m.At.Seq)
	return core.AppendBytes(b, m.Payload)
}

func decodeAccept(data []byte) (acceptMsg, error) {
	m, err := core.DecodeFrame(data, frameAccept, func(r *core.Reader) (m acceptMsg, err error) {
		if m.ID, err = readMsgID(r); err == nil {
			m.Ref, err = readRef(r)
		}
		if err == nil {
			m.At.Fence, err = r.Uvarint()
		}
		if err == nil {
			m.At.Seq, err = r.Uvarint()
		}
		if err == nil {
			m.Payload, err = r.Bytes()
		}
		return m, err
	})
	if err != nil {
		return acceptMsg{}, fmt.Errorf("server: decode ACCEPT: %w", err)
	}
	return m, nil
}

func (f finalResp) encode() []byte {
	b := core.NewFrame(frameAcceptReply, 0, 2)
	return binary.AppendUvarint(binary.AppendUvarint(b, f.Version), uint64(f.Replays))
}

func decodeFinalResp(data []byte) (finalResp, error) {
	f, err := core.DecodeFrame(data, frameAcceptReply, func(r *core.Reader) (f finalResp, err error) {
		f.Version, err = r.Uvarint()
		var replays uint64
		if err == nil {
			replays, err = r.Uvarint()
		}
		f.Replays = int(replays)
		return f, err
	})
	if err != nil {
		return finalResp{}, fmt.Errorf("server: decode ACCEPT reply: %w", err)
	}
	return f, nil
}

// A round's payload — on the wire and in the WAL — is one flag byte ahead
// of a totalorder batch container of its encoded invocations, all
// targeting one ref. The flag says whether the coordinator held a copy of
// the object when it sequenced the round. A replica that receives a
// non-genesis round for an object it does not hold is missing its base
// copy (the hand-off transfer has not arrived) — applying to a freshly
// created object would fork the lineage, so it skips the apply and pulls a
// base copy instead (see applyOrdered). Residency is checked once per
// round, so the flag covers every invocation in it.
const (
	roundExisting byte = 0 // the coordinator already held the object
	roundGenesis  byte = 1 // first-ever round: replicas may create it fresh
)

// encodeRoundPayload builds the payload of a round carrying invs.
func encodeRoundPayload(genesis bool, invs []core.Invocation) ([]byte, error) {
	var one [1][]byte // a round of one keeps its part list off the heap
	parts, size := one[:0], 1+binary.MaxVarintLen64
	for _, inv := range invs {
		enc, err := core.EncodeInvocation(inv)
		if err != nil {
			return nil, err
		}
		parts = append(parts, enc)
		size += binary.MaxVarintLen64 + len(enc)
	}
	payload := make([]byte, 1, size) // one allocation: AppendBatch never grows it
	payload[0] = roundExisting
	if genesis {
		payload[0] = roundGenesis
	}
	return totalorder.AppendBatch(payload, parts), nil
}

// splitRoundPayload validates a payload's flag byte and container and
// returns the still-encoded invocations (aliasing payload).
func splitRoundPayload(payload []byte) (genesis bool, parts [][]byte, err error) {
	if len(payload) == 0 {
		return false, nil, fmt.Errorf("server: empty round payload")
	}
	if payload[0] != roundExisting && payload[0] != roundGenesis {
		return false, nil, fmt.Errorf("server: bad round payload flag 0x%02x", payload[0])
	}
	parts, err = totalorder.SplitBatch(payload[1:])
	return payload[0] == roundGenesis, parts, err
}

// decodeRoundPayload decodes a payload into its genesis flag and
// invocations. All invocations must target the same ref; a mixed round is
// a protocol violation and voids it.
func decodeRoundPayload(payload []byte) (genesis bool, invs []core.Invocation, err error) {
	genesis, parts, err := splitRoundPayload(payload)
	if err != nil {
		return false, nil, err
	}
	invs = make([]core.Invocation, len(parts))
	for i, p := range parts {
		if invs[i], err = core.DecodeInvocation(p); err != nil {
			return false, nil, fmt.Errorf("server: round part %d: %w", i, err)
		}
		if invs[i].Ref != invs[0].Ref {
			return false, nil, fmt.Errorf("server: round mixes refs %s and %s",
				invs[0].Ref, invs[i].Ref)
		}
	}
	return genesis, invs, nil
}

// readOnlyRound reports whether every invocation of a round is a read —
// by its wire flag and by this node's own registry, so a member never
// skips the write machinery on a remote coordinator's say-so alone.
func readOnlyRound(invs []core.Invocation) bool {
	for _, inv := range invs {
		if !inv.ReadOnly || !core.IsReadOnlyMethod(inv.Ref.Type, inv.Method) {
			return false
		}
	}
	return true
}

// primacy reports why this node may not coordinate for group (nil when it
// leads it).
func (n *Node) primacy(ref core.Ref, group []ring.NodeID) error {
	if len(group) == 0 {
		return core.ErrRebalancing
	}
	if group[0] != n.cfg.ID {
		return fmt.Errorf("%w: %s belongs to %s", core.ErrWrongNode, ref, group[0])
	}
	return nil
}

// invoke is the primary-side path for every call on a data object. Its
// group is the replica group for a persistent object and a group of one
// otherwise (replicaGroup), and the contacted node must lead it: reads it
// can prove current are served from the local copy, everything else is
// ordered through a round.
func (n *Node) invoke(ctx context.Context, inv core.Invocation) ([]any, error) {
	group, view := n.replicaGroup(inv.Ref, inv.Persist)
	if err := n.primacy(inv.Ref, group); err != nil {
		return nil, err
	}
	if results, err, ok := n.tryLocalRead(ctx, inv, len(group)); ok {
		// Read-only calls at a provably-current primary skip the ordering
		// round entirely; writes it has not applied were never acked, so
		// the read linearizes at its execution under the object monitor.
		return results, err
	}
	// A replicated write goes through its ref's lane (lane.go); a group of
	// one has no ACCEPT to amortize, and a read no slot to take.
	write := !inv.ReadOnly && len(group) > 1
	if write {
		if w := n.enterLane(ctx, inv); w != nil {
			return n.awaitCut(ctx, w)
		}
		defer n.freeSlot(inv.Ref)
	}
	// A round of one, right here: no queue, no goroutine hop, no timer.
	res, ordered, err := n.runRound(ctx, group, view, []core.Invocation{inv})
	if write && ordered {
		n.hBatchSize.ObserveValue(1)
	}
	if err != nil {
		return nil, err
	}
	return res[0].results, res[0].err
}

// runRound coordinates one ordering round for invs, which all target one
// object, among group as view places it (see replicaGroup): primacy check,
// lease fence, residency, the local apply that sequences it (sequence),
// one ACCEPT to each other member with the fork check on its reply, and
// the WAL wait, in that order and each exactly once however many
// invocations the round carries. A nil error means the round is applied at
// every group member and durable; the per-invocation outcomes (method
// errors included, which every replica reproduces) are in the result,
// index-aligned with invs. ordered reports whether the round was ordered —
// applied here under its seq, the point from which it counts in
// smr_rounds, even if a member then refuses it or the fork check or the
// WAL wait fails it.
func (n *Node) runRound(ctx context.Context, group []ring.NodeID, view membership.View, invs []core.Invocation) (res []opResult, ordered bool, err error) {
	defer func() {
		if err != nil && n.closed.Load() {
			// Whatever cut the round short — a canceled handler context, a
			// closed peer connection, an abandoned WAL — the cause is this
			// node's own shutdown, and the client may retry elsewhere.
			err = core.ErrStopped
		}
	}()
	ref := invs[0].Ref
	// A repeat after invoke, which gates its local paths on it, but not
	// after cutRound, which computes its group later: two comparisons.
	if err := n.primacy(ref, group); err != nil {
		return nil, false, err
	}
	if n.leases != nil && !readOnlyRound(invs) {
		// Revoke-before-commit: block new grants, synchronously invalidate
		// every cached copy, and only then order the mutations. Grants
		// resume (at the post-round version) once every member has applied
		// the round and this node replied.
		done, lerr := n.prepareWrite(ctx, ref)
		if lerr != nil {
			return nil, false, lerr
		}
		defer done()
	}
	genesis, err := n.ensureCoordinatorCopy(ctx, ref, group)
	if err != nil {
		return nil, false, err
	}
	// A failure here is a codec bug, and nothing has been ordered yet. A
	// group of one encodes only for a persistent object's WAL record.
	var payload []byte
	if len(group) > 1 || (n.walEnabled() && invs[0].Persist) {
		if payload, err = encodeRoundPayload(genesis, invs); err != nil {
			return nil, false, err
		}
	}
	id := totalorder.MsgID{Origin: string(n.cfg.ID), Seq: n.seq.Add(1)}
	// Telemetry: attribute the whole ordering round — local apply, the
	// members' applies, their replies — to the active span so reports can
	// separate SMR cost from plain method execution.
	var orderStart time.Time
	if n.instrumented {
		orderStart = time.Now()
	}
	fence := view.Fence()
	out, at, err := n.sequence(ctx, id, fence, genesis, invs, payload)
	if err != nil {
		return nil, false, err
	}
	n.smrOps.Add(uint64(len(invs)))
	n.cSMRRounds.Inc()
	if len(group) > 1 {
		body := acceptMsg{ID: id, Ref: ref, At: at, Payload: payload}.encode()
		err = n.replicate(ctx, id, ref, group, body, finalResp{Version: out.version, Replays: out.replays})
	}
	if n.instrumented {
		telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingSMR, time.Since(orderStart))
	}
	if err != nil {
		return nil, true, err
	}
	if err := waitDurable(ctx, out.commit); err != nil {
		// The round is applied in memory but its record never reached cold
		// storage; acking would promise crash durability the tier cannot
		// honor. No ack — the clients' retries are dedup-safe.
		return nil, true, err
	}
	if n.log.Enabled(ctx, slog.LevelDebug) {
		n.log.Debug("smr round complete", "ref", ref.String(), "id", id.String(),
			"seq", at.Seq, "ops", len(invs), "group", group, "genesis", genesis)
	}
	return out.res, true, nil
}

// sequence is the coordinator's half of a round: single-coordinator
// admission, the fences — the view the round's group came from must still
// be installed and no migration may hold the ref — the copy's lookup
// (creation, for genesis), the fences again, then the apply that gives the
// round its seq (applyOrdered), which it returns. The first check keeps a
// stale round from creating anything; the second makes a hand-off either
// push the copy after the round or bounce it: the round applies to exactly
// the copy it looked up, and one dropped since bounces (DESIGN.md §5e). A
// group of one's round ends here.
func (n *Node) sequence(ctx context.Context, id totalorder.MsgID, fence uint64, genesis bool, invs []core.Invocation, payload []byte) (roundOutcome, position, error) {
	ref := invs[0].Ref
	if !n.inflight.admit(id, ref) {
		return roundOutcome{}, position{}, fmt.Errorf("%w: %s has a round in flight from another coordinator",
			core.ErrRebalancing, ref)
	}
	defer n.inflight.settle(id)
	fenced := func() error {
		if n.epoch.Load().fence != fence || n.migrationFenced(ref) {
			return fmt.Errorf("%w: round for %s fenced on %s (view changed or migrating)",
				core.ErrRebalancing, ref, n.cfg.ID)
		}
		return nil
	}
	var e *entry
	err := fenced()
	if err == nil && genesis {
		e, err = n.lookupOrCreate(invs[0])
	} else if err == nil {
		if e, _ = n.lookupExisting(ref); e == nil {
			err = fmt.Errorf("%w: %s dropped on %s", core.ErrRebalancing, ref, n.cfg.ID)
		}
	}
	if err == nil {
		err = fenced()
	}
	if err != nil {
		return roundOutcome{}, position{}, err
	}
	at := position{Fence: fence}
	out := n.applyOrdered(ctx, id, e, &at, genesis, invs, make([]opResult, len(invs)), payload)
	return out, at, out.err
}

// replicate sends a round's ACCEPT to every member of group but this node
// (group[0]) and checks each reply against the coordinator's own outcome
// (checkRound). The last member is called inline and the others each on
// a goroutine, so a group of two starts none.
func (n *Node) replicate(ctx context.Context, id totalorder.MsgID, ref core.Ref, group []ring.NodeID, body []byte, local finalResp) error {
	var errs <-chan error
	if len(group) > 2 {
		errs = n.acceptAsync(ctx, id, ref, group[1:len(group)-1], body, local)
	}
	err := n.acceptAt(ctx, id, ref, group[len(group)-1], body, local)
	for range len(group) - 2 {
		if merr := <-errs; err == nil {
			err = merr
		}
	}
	return err
}

// acceptAsync runs acceptAt for each of members on its own goroutine and
// returns where their verdicts arrive.
func (n *Node) acceptAsync(ctx context.Context, id totalorder.MsgID, ref core.Ref, members []ring.NodeID, body []byte, local finalResp) <-chan error {
	errs := make(chan error, len(members))
	for _, m := range members {
		go func() { errs <- n.acceptAt(ctx, id, ref, m, body, local) }()
	}
	return errs
}

// acceptAt sends one member a round's ACCEPT and checks its reply.
func (n *Node) acceptAt(ctx context.Context, id totalorder.MsgID, ref core.Ref, member ring.NodeID, body []byte, local finalResp) error {
	out, err := n.peerCall(ctx, member, KindAccept, body)
	if err == nil {
		var resp finalResp
		if resp, err = decodeFinalResp(out); err == nil {
			return n.checkRound(id, ref, member, resp, local)
		}
	}
	// The member is unreachable, refused the round, or the view is
	// changing: the client re-routes on the rebalancing sentinel, and dedup
	// makes the retry safe although the round applied here.
	return fmt.Errorf("%w: round %s on %s: %v", core.ErrRebalancing, id, member, err)
}

// ensureCoordinatorCopy makes sure this node may safely coordinate an
// ordering round for ref, and reports whether the round must be flagged
// genesis. It runs once per round, not per write.
func (n *Node) ensureCoordinatorCopy(ctx context.Context, ref core.Ref, group []ring.NodeID) (genesis bool, err error) {
	_, resident := n.lookupExisting(ref)
	if len(group) == 1 {
		// No peer to ask about a miss. A stale mark polls the rf-sized set,
		// the likeliest holders of a better copy (at RF 1 it just clears).
		if !n.isStale(ref) {
			return !resident, nil
		}
		group, _ = n.replicaGroup(ref, true)
	}
	if !resident || n.isStale(ref) {
		// The primary holds no copy, or holds one marked behind the
		// committed history (a delivery was skipped before its base
		// installed). A miss is either a genuinely new object or one whose
		// hand-off transfer never reached us (the view changed while we
		// were partitioned, or the pusher died mid-transfer). Creating a
		// fresh object in the second case would silently discard all prior
		// state — and coordinating on a stale copy would ack results
		// computed on state missing acknowledged ops. Ask the other
		// replicas for a copy first; only a unanimous miss is creation.
		installed, busy := n.pullObject(ctx, ref, group)
		if installed {
			resident = true
		}
		if !resident && busy {
			// A peer holds a copy but has in-flight ops for it; adopting a
			// snapshot now would miss them. Bounce the client to retry once
			// they settle.
			return false, fmt.Errorf("%w: %s busy at a peer", core.ErrRebalancing, ref)
		}
		if n.isStale(ref) {
			// The pull could not prove the local copy current (no peer
			// reachable, or every candidate busy). Bounce rather than ack
			// a write computed on a possibly-behind copy.
			return false, fmt.Errorf("%w: %s stale on %s", core.ErrRebalancing, ref, n.cfg.ID)
		}
	}
	return !resident, nil
}

// checkRound is the coordinator's fork check on one member's reply: its
// post-apply version and replay count (finalResp) must agree with the
// coordinator's own: both applied the same rounds in the same order, so
// disagreement means one side's copy carries a different history.
// Versions catch the common case — a resurrected older snapshot executes
// an op fresh that the other side replays from its at-most-once window.
// But versions are counts, and two diverged copies can count their way
// back to the same number: a coordinator left ahead of its group by
// applied, never-acked rounds (a member refused or never received them)
// replays their retries while a member that joined from the older base
// executes them fresh, in whatever order the retries arrive. The only way
// equal versions hide different states is through such a replay-vs-execute
// asymmetry, so the asymmetry itself refuses the ack (DESIGN.md §5c has
// the worked interleaving). Either way: no ack (the retry is dedup-safe),
// server.fork_refusals counts it, and the copies are brought together — a
// coordinator behind the member marks itself stale and pulls; otherwise it
// pushes its copy to the member as a repair, which wins a version tie
// there (see transferMsg).
func (n *Node) checkRound(id totalorder.MsgID, ref core.Ref, member ring.NodeID, m, local finalResp) error {
	if m == local {
		return nil
	}
	n.cForkRefusals.Inc()
	n.log.Warn("replica diverged from coordinator, refusing ack",
		"ref", ref.String(), "id", id.String(), "member", string(member),
		"member_version", m.Version, "local_version", local.Version,
		"member_replays", m.Replays, "local_replays", local.Replays)
	if m.Version > local.Version {
		n.markStale(ref)
		go n.selfHeal(ref)
	} else if e, ok := n.lookupExisting(ref); ok {
		go func() {
			if err := n.pushObject(ref, e, member, true); err != nil {
				n.log.Debug("repair push failed", "ref", ref.String(),
					"target", string(member), "err", err)
			}
		}()
	}
	return fmt.Errorf("%w: replica %s of %s at version %d (%d replayed), coordinator at %d (%d replayed)",
		core.ErrRebalancing, member, ref, m.Version, m.Replays, local.Version, local.Replays)
}

// handleAccept services a peer's ACCEPT: the view fence, single-coordinator
// admission, then the apply at the round's place in its ref's order
// (applyOrdered), answered with that apply's outcome. A round fenced on
// the directory's latest view, which this node has not installed yet,
// comes from a coordinator ahead of it and waits up to waitTimeout for
// that install; any other mismatch is refused at once. A refused round
// has already applied at its coordinator, so this member would miss it
// and hold the ref's next rounds: the same holds for a round refused by
// admission, which therefore pulls a copy at once (selfHeal) rather than
// leave its successors to wait out their bound. Admission closes the
// interleaving the fence alone cannot: we accept the old primary's round,
// install the next view, then the new primary sends a round for the same
// object while the first is still parked here. Two coordinators would each
// ack a result the other never sees; the newcomer is refused and its
// client retries once the first round settles.
func (n *Node) handleAccept(ctx context.Context, body []byte) ([]byte, error) {
	msg, err := decodeAccept(body)
	if err != nil {
		return nil, err
	}
	if ep := n.epoch.Load(); msg.At.Fence != ep.fence && msg.At.Fence == n.cfg.Directory.View().Fence() {
		n.awaitView(ctx, ep)
	}
	if msg.At.Fence != n.epoch.Load().fence {
		return nil, fmt.Errorf("%w: round %s fenced on %s (view mismatch)",
			core.ErrRebalancing, msg.ID, n.cfg.ID)
	}
	genesis, invs, err := decodeRoundPayload(msg.Payload)
	if err != nil {
		return nil, err
	}
	if invs[0].Ref != msg.Ref {
		return nil, fmt.Errorf("server: round %s names %s but carries %s", msg.ID, msg.Ref, invs[0].Ref)
	}
	if !n.inflight.admit(msg.ID, msg.Ref) {
		go n.selfHeal(msg.Ref)
		return nil, fmt.Errorf("%w: %s has a round in flight from another coordinator",
			core.ErrRebalancing, msg.Ref)
	}
	defer n.inflight.settle(msg.ID)
	out := n.applyOrdered(ctx, msg.ID, nil, &msg.At, genesis, invs, nil, msg.Payload)
	if out.err != nil {
		return nil, out.err
	}
	return finalResp{Version: out.version, Replays: out.replays}.encode(), nil
}

// awaitView waits, up to waitTimeout, for the view after ep to install.
func (n *Node) awaitView(ctx context.Context, ep *viewEpoch) {
	t := time.NewTimer(n.waitTimeout())
	defer t.Stop()
	select {
	case <-ep.next:
	case <-t.C:
	case <-ctx.Done():
	}
}

// applyOrdered runs every invocation of a round, in payload order, on the
// local copy under a single member write fence and a single monitor
// acquisition, at the round's place in its ref's order. The coordinator
// passes a zero at.Seq: the round takes the next seq under at.Fence in the
// same critical section that applies it, so a coordinator applies its own
// rounds in seq order by construction. A member's round waits its turn
// (awaitTurn). Each invocation is individually dedup-checked and
// dedup-recorded (applyLocked), so a retried write that lands in a later
// round replays instead of re-executing. The round applies all-or-nothing
// with respect to rebalancing-class failures (no base copy, fence failure,
// copy mid-transfer, a gap): those void it before any invocation runs and
// leave the copy's position where it was; deterministic method errors are
// per-invocation outcomes and count as applied.
//
// A round for an object this replica does not hold is applied only when
// the coordinator flagged it as genesis. Otherwise the base copy is
// missing — the hand-off transfer has not arrived yet — and applying to a
// fresh object would fork the lineage: this replica would hold a copy
// reflecting only the ops it saw, yet look authoritative to a later
// version comparison. The round is refused (the ops are safe in the
// coordinator's copy and in any snapshot taken after them) and a
// background pull restores this replica's base copy.
//
// res receives the per-invocation outcomes; a member, which answers no
// caller, passes nil. e is the coordinator's copy (sequence), else nil.
func (n *Node) applyOrdered(ctx context.Context, id totalorder.MsgID, e *entry, at *position, genesis bool, invs []core.Invocation, res []opResult, payload []byte) (out roundOutcome) {
	ref := invs[0].Ref
	if n.beforeApply != nil {
		n.beforeApply(ref)
	}
	if e == nil {
		e, _ = n.lookupExisting(ref)
	}
	if e == nil {
		if !genesis {
			n.log.Debug("refusing round without base copy",
				"ref", ref.String(), "origin", id.Origin, "ops", len(invs))
			out.err = fmt.Errorf("%w: %s has no base copy on %s",
				core.ErrRebalancing, ref, n.cfg.ID)
			// The copy this node eventually installs may be a snapshot
			// taken before this round; mark the ref so the write, grant,
			// and local-read paths refuse it until a barrier-protected
			// pull proves the copy current (see markStale).
			n.markStale(ref)
			go n.selfHeal(ref)
			return out
		}
		if e, out.err = n.lookupOrCreate(invs[0]); out.err != nil {
			return out
		}
	}
	readOnly := readOnlyRound(invs)
	if !readOnly {
		// Member-side revoke-before-commit: leases *this* node granted on
		// the ref (it may be the new primary while a deposed coordinator
		// still writes under its old view) must die before the ACCEPT reply
		// that gates the ack. One revocation round covers every write of
		// the round — leases are dead before the first applies, and grants
		// resume only after the last.
		release, err := n.memberWriteFence(id.Origin, ref)
		if err != nil {
			// The revocation round could not complete, so a stale lease
			// may outlive this round; refuse the apply (no ack — the
			// retries are dedup-safe) and heal: the coordinator applied,
			// so our copy is now behind.
			n.markStale(ref)
			go n.selfHeal(ref)
			out.err = err
			return out
		}
		defer release()
	}
	n.lockEntry(ctx, e)
	if at.Seq == 0 {
		*at = e.nextSeq(at.Fence)
	} else if rec, err := n.awaitTurn(ctx, e, ref, id, *at); rec != nil || err != nil {
		e.mu.Unlock()
		if rec != nil { // a duplicate: answer what the original did
			out.version, out.replays = rec.Version, rec.Replays
		}
		out.err = err
		return out
	}
	if e.transferring {
		e.mu.Unlock()
		out.err = core.ErrRebalancing
		return out
	}
	// Read under the monitor: a later read could include a later round.
	out.replays = n.applyLocked(ctx, e, invs, res)
	out.version = e.version
	e.advance(id, *at, finalResp{Version: out.version, Replays: out.replays})
	if !readOnly && e.persist {
		// One record carries the whole round; replay re-applies its
		// invocations through the same dedup window. Every replica logs
		// its own WAL; only the coordinator's ticket gates the ack. Under
		// the monitor: replay's version gate needs apply-version order.
		out.commit = n.appendWAL(id.Origin, id.Seq, out.version, payload)
	}
	e.mu.Unlock()
	out.res = res
	k := telemetry.ObjectKey{Type: ref.Type, Key: ref.Key}
	n.objTrack.ObserveApply(k, len(invs))
	n.bundleTrack.ObserveApply(k, len(invs))
	if n.log.Enabled(ctx, slog.LevelDebug) {
		n.log.Debug("smr round applied", "ref", ref.String(), "id", id.String(), "seq", at.Seq,
			"ops", len(invs), "version", out.version, "replays", out.replays)
	}
	return out
}

// awaitTurn holds a member's round at position at until it is the next
// round e applies, and returns with e.mu held as it was called. It returns
// the recorded reply when e already applied the round (a duplicate
// ACCEPT), and an error when the round may not apply: its fence is no
// longer the installed view's (a view change also wakes every parked
// round, so a dead origin's rounds leave at once), it is behind the copy,
// or a predecessor never came. A round parked past waitTimeout pulls a
// copy from the group through the fetch path (pullObject), which resumes
// the lane after that copy's position (installTransfer), and then either
// applies or gives up.
func (n *Node) awaitTurn(ctx context.Context, e *entry, ref core.Ref, id totalorder.MsgID, at position) (*finalResp, error) {
	var timer *time.Timer
	for pulled := false; ; {
		ep := n.epoch.Load()
		if at.Fence != ep.fence {
			return nil, fmt.Errorf("%w: round %s fenced on %s (view changed)", core.ErrRebalancing, id, n.cfg.ID)
		}
		switch verdict, rec := e.laneTurn(id, at); verdict {
		case laneApply:
			return nil, nil
		case laneDone:
			return &rec, nil
		case laneStale:
			return nil, fmt.Errorf("%w: round %s (seq %d) is behind %s's copy of %s (seq %d)",
				core.ErrRebalancing, id, at.Seq, n.cfg.ID, ref, e.pos.Seq)
		}
		if pulled {
			return nil, fmt.Errorf("%w: %s is missing rounds of %s before seq %d",
				core.ErrRebalancing, n.cfg.ID, ref, at.Seq)
		}
		if e.turn == nil {
			e.turn = make(chan struct{})
		}
		turn := e.turn
		e.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(n.waitTimeout())
			defer timer.Stop()
		}
		select {
		case <-turn:
		case <-ep.next:
		case <-ctx.Done():
			e.mu.Lock()
			return nil, ctx.Err()
		case <-timer.C:
			group, _ := n.replicaGroup(ref, true)
			pctx, cancel := context.WithTimeout(ctx, 2*n.waitTimeout())
			n.pullObject(pctx, ref, group)
			cancel()
			pulled = true
		}
		e.mu.Lock()
	}
}

// laneMemory is how many applied rounds a copy remembers the replies of,
// so that a duplicate ACCEPT (a redialed or duplicated frame) answers what
// its original did. Two covers every write round, inline or cut: a primary
// keeps at most pipelineDepth of a ref's in flight (lane.go). A duplicate
// of an older round is refused, which costs its client a retry, not a fork.
const laneMemory = pipelineDepth

// laneRecord is one remembered round.
type laneRecord struct {
	seq  uint64
	id   totalorder.MsgID
	resp finalResp
}

type laneVerdict uint8

const (
	laneApply laneVerdict = iota // the round is next
	laneWait                     // a predecessor has not applied yet
	laneDone                     // applied already: answer its record
	laneStale                    // behind the copy, and no known duplicate
)

// laneTurn says what a member's round at position at does next (e.mu
// held). A round opening a new fence's order (seq 1) is next whatever the
// copy's position; so is seq 1 of a restarted primary under an unchanged
// fence, known by a MsgID later than the one that opened the order here.
// A copy installed from a transfer does not know that round, so there
// seq 1 reads as behind: a round the copy already covers must not apply
// twice.
func (e *entry) laneTurn(id totalorder.MsgID, at position) (laneVerdict, finalResp) {
	if at.Fence != e.pos.Fence {
		if at.Seq == 1 {
			return laneApply, finalResp{}
		}
		return laneWait, finalResp{}
	}
	switch {
	case at.Seq == e.pos.Seq+1:
		return laneApply, finalResp{}
	case at.Seq > e.pos.Seq:
		return laneWait, finalResp{}
	}
	if r := e.recent[at.Seq%laneMemory]; r.seq == at.Seq && r.id == id {
		return laneDone, r.resp
	}
	if at.Seq == 1 && id.Origin == e.first.Origin && id.Seq > e.first.Seq {
		return laneApply, finalResp{}
	}
	return laneStale, finalResp{}
}

// nextSeq is the position of the next round this node sequences under
// fence (e.mu held).
func (e *entry) nextSeq(fence uint64) position {
	if e.pos.Fence != fence {
		return position{Fence: fence, Seq: 1}
	}
	return position{Fence: fence, Seq: e.pos.Seq + 1}
}

// advance records the round id applied at position at (e.mu held).
func (e *entry) advance(id totalorder.MsgID, at position, resp finalResp) {
	e.setPos(at)
	if at.Seq == 1 {
		e.first = id
	}
	e.recent[at.Seq%laneMemory] = laneRecord{seq: at.Seq, id: id, resp: resp}
}

// setPos moves the copy to position p and wakes the rounds parked on it
// (e.mu held).
func (e *entry) setPos(p position) {
	if p.Fence != e.pos.Fence {
		e.first = totalorder.MsgID{}
	}
	e.pos = p
	if e.turn != nil {
		close(e.turn)
		e.turn = nil
	}
}

// peerCall performs one inter-node RPC with simulated replica-link latency,
// a per-attempt timeout (see Config.PeerCallTimeout) and a single redial on
// connection failure. A peer's refusal (rpc.RemoteError) comes back as is:
// the connection is sound, and other calls share it. The timeout is what turns a frame lost in the network
// into an error the round can fail with; an unbounded call would hold the
// round, and its client, forever.
func (n *Node) peerCall(ctx context.Context, id ring.NodeID, kind uint8, body []byte) ([]byte, error) {
	if err := n.profile.Delay(ctx, n.profile.DSOReplica); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		c, err := n.peer(id)
		if err != nil {
			return nil, err
		}
		out, err := c.CallTimeout(ctx, kind, body, n.peerTimeout)
		var refused rpc.RemoteError
		if err == nil || errors.As(err, &refused) {
			return out, err
		}
		n.dropPeer(id)
		if attempt >= 1 || ctx.Err() != nil {
			return nil, err
		}
		// Brief pause before redial: the peer may be restarting.
		if err := pause(ctx, time.Millisecond); err != nil {
			return nil, err
		}
	}
}

// waitTimeout is peerTimeout floored at the Config.PeerCallTimeout default,
// for waits that scale with it: a negative setting disables the per-attempt
// RPC bound and zeroes peerTimeout, but those waits still need a real
// deadline — at zero, a round that arrived a moment before its predecessor
// would give up at once and pull.
func (n *Node) waitTimeout() time.Duration {
	if n.peerTimeout > 0 {
		return n.peerTimeout
	}
	return 2 * time.Second
}
