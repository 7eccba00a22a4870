package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// State-machine replication of persistent objects (paper Section 4.1):
// operations on an object with rf > 1 are disseminated to its replica group
// with total-order multicast; every replica applies them in delivery order
// on its local copy, and the primary returns the result to the caller.
//
// There is one way to do that, the round (runRound): 1..N invocations on
// one object share one MsgID, one lease fence, one PROPOSE/FINAL exchange,
// one monitor acquisition at every replica, one WAL record and one fork
// check. An unbatched write — and every read-only ordering round — is a
// round of one, run inline on its caller's goroutine under its caller's
// context; group commit (batch.go) only decides how many invocations a
// round carries and runs it under the batcher's own bounded context.

// opResult is one invocation's outcome inside a round.
type opResult struct {
	results []any
	err     error
}

// roundOutcome is what one replica's in-order apply of a round produced;
// on the coordinator it is handed to the waiting runRound.
type roundOutcome struct {
	res []opResult
	// version is the copy's apply version right after the round's last
	// invocation, and replays how many of its invocations were answered
	// from the at-most-once window instead of executing; both are captured
	// under the object monitor (see apply) and compared against the
	// members' finalResp before acking (see checkRound).
	version uint64
	replays int
	// commit is the round's WAL durability ticket (nil with the tier off
	// and for read-only rounds); the coordinator's ack waits on it.
	commit *durability.Commit
	// err is a round-level failure (undecodable payload, missing base
	// copy, lease fence, copy mid-transfer): no invocation executed.
	err error
}

// round is the coordinator's record of one ordering round in flight,
// registered under its MsgID in Node.rounds from before the multicast
// until runRound returns. It keeps what the coordinator already knows so
// that nothing is decoded back out of its own payload: the admission check
// of the local PROPOSE reads ref, and the coordinator's own delivery
// applies invs. It is also the round's totalorder.Transport: messages to
// self short-circuit without network or simulated latency, messages to
// peers pay one DSOReplica hop each way.
type round struct {
	n       *Node
	ref     core.Ref
	invs    []core.Invocation
	genesis bool
	// fence is the digest of the view the round's group was computed from,
	// and every PROPOSE carries exactly it: reading the view again at send
	// time would let a round whose group predates a long prepareWrite wait
	// (a crashed holder's lease running out) pass the view check at
	// old-group members that have since installed the next view.
	fence uint64
	// done receives the coordinator's own delivery. Buffered: the protocol
	// layer delivers an id at most once, and a round whose waiter gave up
	// must not block the delivery goroutine.
	done chan roundOutcome
	// replies collects the members' FINAL replies (under mu while the
	// multicast runs; checkRound reads it once the multicast has returned).
	mu      sync.Mutex
	replies []memberReply
}

type memberReply struct {
	member ring.NodeID
	finalResp
}

// finalResp is the reply to a FINAL control message, sent after the
// member has applied the finalized round (see handleFinal): the member
// copy's apply version immediately after that apply, and how many of the
// round's invocations it answered from its at-most-once window. Replicas
// of one object apply the same totally-ordered sequence, so for any given
// round every member's pair must agree with the coordinator's — a
// mismatch means one side ran the round on a copy with a different history
// and the round must not be acked (see checkRound). A member whose apply
// raced the bookkeeping window has nothing recorded and replies with an
// empty body, which skips the comparison.
type finalResp struct {
	Version uint64
	Replays int
}

// proposeMsg and finalMsg are the Skeen control messages on the wire.
// Fence is the coordinator's membership digest (membership.View.Fence): a
// receiver refuses proposes from a coordinator whose view of the cluster
// differs from its own. Skeen's protocol needs every group member's
// propose to succeed, so during a view transition any replica shared
// between the old and the new replica group fences out the stale
// coordinator — without the fence, the old and the new primary can both
// commit ops for the same object to overlapping groups and fork its
// lineage (two clients acknowledged the same counter value).
type proposeMsg struct {
	ID      totalorder.MsgID
	Payload []byte
	Fence   uint64
}

type finalMsg struct {
	ID totalorder.MsgID
	TS uint64
}

// A round's payload — on the wire and in the WAL — is one flag byte ahead
// of a totalorder batch container of its encoded invocations, all
// targeting one ref. The flag says whether the coordinator held a copy of
// the object when it multicast the round. A replica that receives a
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

// invokeReplicated is the primary-side path for persistent objects: the
// contacted node must be the primary replica; reads it can prove current
// are served from the local copy, everything else is ordered through a
// round.
func (n *Node) invokeReplicated(ctx context.Context, inv core.Invocation) ([]any, error) {
	group, view := n.replicaGroup(inv.Ref, true)
	if len(group) > 0 && group[0] != n.cfg.ID && inv.ReadOnly && n.leases != nil && slices.Contains(group, n.cfg.ID) {
		// Follower read: serve the read from our replica copy under a
		// primary-granted lease instead of bouncing to the primary.
		return n.followerRead(ctx, inv, group[0])
	}
	if err := n.primacy(inv.Ref, group); err != nil {
		return nil, err
	}
	info, err := n.cfg.Registry.Lookup(inv.Ref.Type)
	if err != nil {
		return nil, err
	}
	if info.Synchronization {
		// Synchronization objects are never replicated (paper, fn. 2).
		return n.invokeLocal(ctx, inv)
	}
	if results, err, ok := n.tryLocalRead(ctx, inv); ok {
		// Read-only calls at a provably-current primary skip the ordering
		// round entirely; writes it has not applied were never acked, so
		// the read linearizes at its execution under the object monitor.
		return results, err
	}
	if n.batcher != nil && !inv.ReadOnly {
		// Group commit (Config.Write): the mutation joins a per-ref queue
		// and shares its round with its concurrent neighbors.
		return n.batcher.submit(ctx, inv)
	}
	// A round of one, right here: no queue, no goroutine hop, no timer.
	res, _, err := n.runRound(ctx, group, view, []core.Invocation{inv})
	if err != nil {
		return nil, err
	}
	return res[0].results, res[0].err
}

// runRound coordinates one ordering round for invs, which all target one
// object, among group as view places it (see replicaGroup): primacy check,
// lease fence, residency, multicast, the wait for this node's own in-order
// delivery, the fork check and the WAL wait, in that order and each exactly
// once however many invocations the round carries. A nil error means the
// round is applied at every group member and durable; the per-invocation
// outcomes (method errors included, which every replica reproduces) are in
// the result, index-aligned with invs. ordered reports whether the multicast
// went through — the point from which the round counts in smr_rounds, even
// if it then fails the fork check or the WAL wait.
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
	// A repeat after invokeReplicated, which gates its local paths on it, but
	// not after flush, which computes its group later: two comparisons.
	if err := n.primacy(ref, group); err != nil {
		return nil, false, err
	}
	if n.leases != nil && !readOnlyRound(invs) {
		// Revoke-before-commit: block new grants, synchronously invalidate
		// every cached copy and follower lease, and only then order the
		// mutations. Grants resume (at the post-round version) once the
		// primary has applied the round and replied.
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
	// An invocation this node decoded off the wire re-encodes; a failure
	// here is a codec bug, and nothing has been ordered yet.
	payload, err := encodeRoundPayload(genesis, invs)
	if err != nil {
		return nil, false, err
	}
	id := totalorder.MsgID{Origin: string(n.cfg.ID), Seq: n.seq.Add(1)}
	rd := &round{n: n, ref: ref, invs: invs, genesis: genesis, fence: view.Fence(),
		done: make(chan roundOutcome, 1)}
	n.roundMu.Lock()
	n.rounds[id] = rd
	n.roundMu.Unlock()
	defer func() {
		n.roundMu.Lock()
		delete(n.rounds, id)
		n.roundMu.Unlock()
	}()

	members := make([]string, len(group))
	for i, g := range group {
		members[i] = string(g)
	}
	// Telemetry: attribute the whole ordering round — multicast, in-order
	// delivery, replica execution — to the active span so reports can
	// separate SMR cost from plain method execution.
	var orderStart time.Time
	if n.instrumented {
		orderStart = time.Now()
	}
	if err := totalorder.Multicast(ctx, rd, members, id, payload); err != nil {
		// A failed multicast means part of the replica group is
		// unreachable or the view is changing under our feet (a member
		// crashed between group computation and propose). Either way the
		// client should re-route and retry — surface the rebalancing
		// sentinel, which survives the wire's string encoding as a prefix
		// (unlike an error buried mid-text). At-most-once dedup makes the
		// retry safe even if this round did deliver somewhere.
		return nil, false, fmt.Errorf("%w: %v", core.ErrRebalancing, err)
	}
	n.smrOps.Add(uint64(len(invs)))
	n.cSMRRounds.Inc()
	var out roundOutcome
	select {
	case out = <-rd.done:
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
	if n.instrumented {
		telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingSMR, time.Since(orderStart))
	}
	if out.err != nil {
		return nil, true, out.err
	}
	if err := n.checkRound(id, rd, out); err != nil {
		return nil, true, err
	}
	if err := waitDurable(ctx, out.commit); err != nil {
		// The round is applied in memory but its record never reached cold
		// storage; acking would promise crash durability the tier cannot
		// honor. No ack — the clients' retries are dedup-safe.
		return nil, true, err
	}
	n.log.Debug("smr round complete", "ref", ref.String(), "id", id.String(),
		"ops", len(invs), "group", members, "genesis", genesis)
	return out.res, true, nil
}

// ensureCoordinatorCopy makes sure this node may safely coordinate an
// ordering round for ref, and reports whether the round must be flagged
// genesis. It runs once per round, not per write.
func (n *Node) ensureCoordinatorCopy(ctx context.Context, ref core.Ref, group []ring.NodeID) (genesis bool, err error) {
	_, resident := n.lookupExisting(ref)
	if (!resident || n.isStale(ref)) && len(group) > 1 {
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

// checkRound is the coordinator's fork check, run after its own in-order
// apply and before the ack. Every member that reported its post-apply
// version and replay count (finalResp) must agree with the coordinator's
// on both: the total order delivers the same op sequence everywhere, so
// disagreement means one side's copy carries a different history. Versions
// catch the common case — a resurrected older snapshot executes an op
// fresh that the other side replays from its at-most-once window. But
// versions are counts, and two diverged copies can count their way back
// to the same number: a coordinator left ahead of its group by applied,
// never-acked ops (a member failed between PROPOSE and FINAL) replays
// their retries while a member that joined from the older base executes
// them fresh, in whatever order the retries arrive. The only way equal
// versions hide different states is through such a replay-vs-execute
// asymmetry, so the asymmetry itself refuses the ack (DESIGN.md §5c has
// the worked interleaving). Either way: no ack (the retry is dedup-safe),
// and the copies are brought together — a coordinator behind a member
// marks itself stale and pulls; otherwise it pushes its copy to the
// member as a repair, which wins a version tie there (see transferMsg).
func (n *Node) checkRound(id totalorder.MsgID, rd *round, local roundOutcome) error {
	for _, m := range rd.replies {
		if m.Version == local.version && m.Replays == local.replays {
			continue
		}
		n.log.Warn("replica diverged from coordinator, refusing ack",
			"ref", rd.ref.String(), "id", id.String(), "member", string(m.member),
			"member_version", m.Version, "local_version", local.version,
			"member_replays", m.Replays, "local_replays", local.replays)
		if m.Version > local.version {
			n.markStale(rd.ref)
			go n.selfHeal(rd.ref)
		} else if e, ok := n.lookupExisting(rd.ref); ok {
			go func(member ring.NodeID) {
				if err := n.pushObject(rd.ref, e, member, true); err != nil {
					n.log.Debug("repair push failed", "ref", rd.ref.String(),
						"target", string(member), "err", err)
				}
			}(m.member)
		}
		return fmt.Errorf("%w: replica %s of %s at version %d (%d replayed), coordinator at %d (%d replayed)",
			core.ErrRebalancing, m.member, rd.ref, m.Version, m.Replays, local.version, local.replays)
	}
	return nil
}

// deliver is the total-order delivery callback: it applies one ordered
// round to the local replica and hands the outcome to the coordinating
// runRound if this node originated it — in which case the round's own
// invocations are applied and nothing is decoded.
//
// The return value reports whether the round was applied to this
// replica's copy. The coordinator's FINAL exchange waits on it (see
// handleFinal): a skipped or bounced delivery returns false, the
// coordinator's multicast fails, and the clients get a retryable error
// instead of an ack — so an acknowledged op is guaranteed applied at every
// group member, and no single crash can take the only copy of an
// acknowledged write with it. Only rebalancing-class failures count as
// not applied; any other outcome every replica reproduces.
func (n *Node) deliver(id totalorder.MsgID, payload []byte) bool {
	n.inflight.settle(id)
	n.roundMu.Lock()
	rd := n.rounds[id]
	n.roundMu.Unlock()
	var out roundOutcome
	if rd != nil {
		out = n.applyOrdered(id, rd.genesis, rd.invs, make([]opResult, len(rd.invs)), payload)
		rd.done <- out
	} else if genesis, invs, err := decodeRoundPayload(payload); err != nil {
		out.err = err
	} else if out = n.applyOrdered(id, genesis, invs, nil, payload); out.err == nil {
		// Member side: remember the outcome for the FINAL reply's fork
		// check (see handleFinal). Bounded: an apply whose FINAL handler
		// already gave up waiting leaves an orphan entry, so the map is
		// pruned arbitrarily past a cap — a pruned entry only downgrades
		// the coordinator's comparison to "unknown", never corrupts it.
		n.applyMu.Lock()
		if len(n.applied) > 4096 {
			for k := range n.applied {
				delete(n.applied, k)
				if len(n.applied) <= 2048 {
					break
				}
			}
		}
		n.applied[id] = finalResp{Version: out.version, Replays: out.replays}
		n.applyMu.Unlock()
	}
	return out.err == nil || !errors.Is(out.err, core.ErrRebalancing)
}

// applyOrdered runs every invocation of a delivered round, in payload
// order, on the local copy under a single member write fence and a single
// monitor acquisition. Each invocation is individually dedup-checked and
// dedup-recorded (apply), so a retried write that lands in a later round
// replays instead of re-executing. The round applies all-or-nothing with
// respect to rebalancing-class failures (no base copy, fence failure, copy
// mid-transfer): those void it before any invocation runs, so the single
// applied verdict the protocol layer expects remains sound; deterministic
// method errors are per-invocation outcomes and count as applied.
//
// A round for an object this replica does not hold is applied only when
// the coordinator flagged it as genesis. Otherwise the base copy is
// missing — the hand-off transfer has not arrived yet — and applying to a
// fresh object would fork the lineage: this replica would hold a copy
// reflecting only the ops it saw, yet look authoritative to a later
// version comparison. The delivery is skipped (the ops are safe in the
// other replicas' copies and in any snapshot taken after them) and a
// background pull restores this replica's base copy.
//
// res receives the per-invocation outcomes; a member, which answers no
// caller, passes nil.
func (n *Node) applyOrdered(id totalorder.MsgID, genesis bool, invs []core.Invocation, res []opResult, payload []byte) (out roundOutcome) {
	ref := invs[0].Ref
	e, resident := n.lookupExisting(ref)
	if !resident {
		if !genesis {
			n.log.Debug("skipping committed round without base copy",
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
		// still writes under its old view) must die before the FINAL reply
		// that gates the ack. One revocation round covers every write of
		// the round — leases are dead before the first applies, and grants
		// resume only after the last.
		release, err := n.memberWriteFence(id.Origin, ref)
		if err != nil {
			// The revocation round could not complete, so a stale lease
			// may outlive this round; refuse the apply (no ack — the
			// retries are dedup-safe) and heal: the other members
			// applied, so our copy is now behind.
			n.markStale(ref)
			go n.selfHeal(ref)
			out.err = err
			return out
		}
		defer release()
	}
	// Ordered ops never block (no sync objects), so Background is a safe
	// execution context here.
	out.version, out.replays, out.err = n.apply(context.Background(), e, invs, res, false)
	if out.err != nil {
		return out
	}
	out.res = res
	if !readOnly {
		// One record carries the whole round; replay re-applies its
		// invocations through the same dedup window. Every replica logs
		// its own WAL; only the coordinator's ticket gates the ack.
		out.commit = n.appendWAL(id.Origin, id.Seq, out.version, payload)
	}
	k := telemetry.ObjectKey{Type: ref.Type, Key: ref.Key}
	n.objTrack.ObserveApply(k, len(invs))
	n.bundleTrack.ObserveApply(k, len(invs))
	n.log.Debug("smr round applied", "ref", ref.String(), "id", id.String(),
		"ops", len(invs), "version", out.version, "replays", out.replays)
	return out
}

// send encodes one control message and delivers it to a remote member.
func (rd *round) send(ctx context.Context, target string, kind uint8, msg any) ([]byte, error) {
	body, err := core.EncodeValue(msg)
	if err != nil {
		return nil, err
	}
	return rd.n.peerCall(ctx, ring.NodeID(target), kind, body)
}

// Propose implements totalorder.Transport.
func (rd *round) Propose(ctx context.Context, target string, id totalorder.MsgID, payload []byte) (uint64, error) {
	if target == string(rd.n.cfg.ID) {
		return rd.n.acceptPropose(id, rd.ref, payload)
	}
	out, err := rd.send(ctx, target, KindPropose, proposeMsg{ID: id, Payload: payload, Fence: rd.fence})
	if err != nil {
		return 0, err
	}
	var ts uint64
	err = core.DecodeValue(out, &ts)
	return ts, err
}

// Final implements totalorder.Transport. Remote replies carry the member's
// post-apply outcome (finalResp), collected for the fork check.
func (rd *round) Final(ctx context.Context, target string, id totalorder.MsgID, ts uint64) error {
	if target == string(rd.n.cfg.ID) {
		rd.n.to.HandleFinal(id, ts)
		return nil
	}
	out, err := rd.send(ctx, target, KindFinal, finalMsg{ID: id, TS: ts})
	if err != nil {
		return err
	}
	var resp finalResp
	if len(out) > 0 && core.DecodeValue(out, &resp) == nil {
		rd.mu.Lock()
		rd.replies = append(rd.replies, memberReply{ring.NodeID(target), resp})
		rd.mu.Unlock()
	}
	return nil
}

// Abort implements totalorder.Transport.
func (rd *round) Abort(ctx context.Context, target string, id totalorder.MsgID) error {
	if target == string(rd.n.cfg.ID) {
		rd.n.inflight.settle(id)
		rd.n.to.Drop(id)
		return nil
	}
	_, err := rd.send(ctx, target, KindAbort, id)
	return err
}

// peerCall performs one inter-node RPC with simulated replica-link latency,
// a per-attempt timeout (see Config.PeerCallTimeout) and a single redial on
// connection failure. The timeout is what turns a frame lost in the network
// into an error the protocol layer can clean up after; an unbounded call
// would wedge the coordinator and, with it, the total-order queue.
func (n *Node) peerCall(ctx context.Context, id ring.NodeID, kind uint8, body []byte) ([]byte, error) {
	if err := n.profile.Delay(ctx, n.profile.DSOReplica); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		c, err := n.peer(id)
		if err != nil {
			return nil, err
		}
		callCtx := ctx
		var cancel context.CancelFunc
		if n.peerTimeout > 0 {
			callCtx, cancel = context.WithTimeout(ctx, n.peerTimeout)
		}
		out, err := c.Call(callCtx, kind, body)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return out, nil
		}
		n.dropPeer(id)
		if attempt >= 1 || ctx.Err() != nil {
			return nil, err
		}
		// Brief pause before redial: the peer may be restarting.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// waitTimeout is peerTimeout floored at the Config.PeerCallTimeout default,
// for waits that scale with it: a negative setting disables the per-attempt
// RPC bound and zeroes peerTimeout, but those waits still need a real
// deadline — at zero, any finalized op queued behind an earlier pending
// message would fail its FINAL immediately and the coordinator would
// spuriously abort the round.
func (n *Node) waitTimeout() time.Duration {
	if n.peerTimeout > 0 {
		return n.peerTimeout
	}
	return 2 * time.Second
}

// handleAbort services a peer's ABORT.
func (n *Node) handleAbort(payload []byte) ([]byte, error) {
	var id totalorder.MsgID
	if err := core.DecodeValue(payload, &id); err != nil {
		return nil, err
	}
	n.inflight.settle(id)
	n.to.Drop(id)
	return nil, nil
}

// handlePropose services a peer's PROPOSE. Proposes from a coordinator
// whose membership view disagrees with ours are refused (see proposeMsg):
// the coordinator aborts the round and the client retries once the views
// converge — a transient bounce, never a fork.
func (n *Node) handlePropose(payload []byte) ([]byte, error) {
	var msg proposeMsg
	if err := core.DecodeValue(payload, &msg); err != nil {
		return nil, err
	}
	view, _ := n.currentView()
	if fence := view.Fence(); msg.Fence != fence {
		return nil, fmt.Errorf("%w: propose from %s fenced (view mismatch)",
			core.ErrRebalancing, msg.ID.Origin)
	}
	// All invocations of a round share one object; the first names it.
	_, parts, err := splitRoundPayload(msg.Payload)
	if err != nil {
		return nil, err
	}
	first, err := core.DecodeInvocation(parts[0])
	if err != nil {
		return nil, err
	}
	ts, err := n.acceptPropose(msg.ID, first.Ref, msg.Payload)
	if err != nil {
		return nil, err
	}
	return core.EncodeValue(ts)
}

// acceptPropose is the receiving half of a PROPOSE, the coordinator's own
// or a peer's: single-coordinator admission, then the timestamp. The view
// fence (handlePropose) compares whole views, but it cannot stop this
// interleaving — we accept the old primary's op, install the next view,
// then the new primary proposes for the same object while the first op is
// still undelivered. Two coordinators would each ack a result the other
// never sees. Refuse the newcomer; its round aborts and the client retries
// after the pending op settles.
func (n *Node) acceptPropose(id totalorder.MsgID, ref core.Ref, payload []byte) (uint64, error) {
	if !n.inflight.admit(id, ref) {
		return 0, fmt.Errorf("%w: %s has an op in flight from another coordinator",
			core.ErrRebalancing, ref)
	}
	return n.to.HandlePropose(id, payload), nil
}

// handleFinal services a peer's FINAL. It replies only once the message
// has been applied here, not merely finalized: the coordinator's
// Multicast waits on this reply before its own delivery acks the client,
// so the reply is the guarantee that an acknowledged operation exists at
// every group member. A finalized-but-undelivered message (stuck behind
// an earlier pending op) acked in that window would live solely in the
// coordinator's memory — a coordinator crash would drop it, the view
// change would purge the stuck proposal, and the survivors would agree on
// a history missing an acknowledged write. The wait bound matches the
// orphan TTL that limits how long a zombie proposal can stall delivery;
// on expiry the coordinator surfaces a retryable error instead of acking
// (the at-most-once window makes the client's retry safe either way).
func (n *Node) handleFinal(payload []byte) ([]byte, error) {
	var msg finalMsg
	if err := core.DecodeValue(payload, &msg); err != nil {
		return nil, err
	}
	n.to.HandleFinal(msg.ID, msg.TS)
	if !n.to.WaitDelivered(msg.ID, 10*n.waitTimeout()) {
		return nil, fmt.Errorf("%w: %s finalized but not yet applied on %s",
			core.ErrRebalancing, msg.ID, n.cfg.ID)
	}
	// Report the local outcome so the coordinator can verify the copies
	// did not fork (see finalResp). The entry was recorded by deliver;
	// consume it so the map stays bounded.
	n.applyMu.Lock()
	resp, known := n.applied[msg.ID]
	delete(n.applied, msg.ID)
	n.applyMu.Unlock()
	if !known {
		return nil, nil
	}
	return core.EncodeValue(resp)
}
