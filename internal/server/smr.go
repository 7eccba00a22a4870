package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"sync"
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
// the primary orders each object alone (DESIGN.md §5c). It opens the ref
// once per view epoch (open: its copy becomes the highest of its group's),
// gives every round a position (epoch, seq) right after its copy's,
// applies it, and sends one ACCEPT frame naming both positions to each
// other member, which applies the round only at exactly its predecessor
// (its lane, see awaitTurn) and acks once it has. Two rules make the
// primary's order the ref's only one: a member refuses a round fenced on
// another view than its own, and a node admits one coordinator's rounds
// per ref at a time (entry.admit). Different refs apply concurrently.
//
// There is one way to do that, the round (runRound): 1..N invocations on
// one object share one MsgID, lease fence, position, ACCEPT per member,
// monitor acquisition at every replica and WAL record. A write is a
// round of one on its caller's goroutine unless its ref's lane is full:
// then it rides a later round with the writes queued beside it (lane.go).
// An rf=1 object's round has a group of one and sends nothing; only
// synchronization objects stay outside rounds.

// opResult is one invocation's outcome inside a round.
type opResult struct {
	results []any
	err     error
}

// roundOutcome is what one replica's in-order apply of a round produced,
// besides the per-invocation outcomes (applyOrdered's res).
type roundOutcome struct {
	// commit is the round's WAL durability ticket (nil with the tier off
	// and for read-only rounds); the coordinator's ack waits on it.
	commit *durability.Commit
	// err is a round-level failure (undecodable payload, missing base
	// copy, fence, copy mid-transfer, a predecessor this copy does not
	// stand at): no invocation executed.
	err error
}

// position is where a copy stands in its ref's order: the view epoch
// (membership.View.ID) of the last round it applied and that round's seq
// under it. Positions order copies: every copy of a ref that stands at one
// position ran the same rounds, and transfers install, and WAL replay
// applies, only what is strictly higher.
type position struct {
	Epoch, Seq uint64
}

// less reports whether p comes before q in a ref's order.
func (p position) less(q position) bool {
	return p.Epoch < q.Epoch || p.Epoch == q.Epoch && p.Seq < q.Seq
}

// acceptMsg is the replication frame (KindAccept). ID names the round for
// dedup, the WAL record and admission; Ref is the object every invocation
// of Payload targets. Fence is the digest of the view the round's group
// came from (membership.View.Fence): a receiver whose installed view has
// another fence refuses the round, or an old and a new primary could both
// commit rounds for one object to overlapping groups. At is the round's
// position and Prev the position of the copy the coordinator applied it
// to: a member applies it only on a copy at exactly Prev, so every member
// that acks ran it on the history the coordinator did.
type acceptMsg struct {
	ID       totalorder.MsgID
	Ref      core.Ref
	Fence    uint64
	Prev, At position
	Payload  []byte
}

// Control frames (DESIGN.md §5b). Each per-operation frame — ACCEPT here,
// the lease frames in lease.go — is a tag byte naming the frame followed by
// its fields in the tag codec's encodings (core.Append*): strings and byte
// slices length-prefixed, integers uvarint. There is no version and no
// fallback. A decoder accepts exactly its own tag and layout: a truncated
// frame, a field length past the end and a trailing byte are all errors.
// Decoders copy what they return, because the rpc server recycles a
// request's buffer once its handler returns, with one exception: an
// ACCEPT's payload aliases the frame. Its invocations decode to copies but
// for their Init lists (core.DecodeInvocationOn), which only the apply
// that creates the copy reads, within the handler; handleAccept copies
// the payload itself only when the WAL keeps it.
const (
	frameAccept      byte = 'A' // MsgID, Ref, Fence, Prev, At, Payload
	frameAcceptReply byte = 'a' // the ack: the member applied the round
)

// appendMsgID appends id's Origin and Seq; readMsgID reads them back.
func appendMsgID(dst []byte, id totalorder.MsgID) []byte {
	return binary.AppendUvarint(core.AppendString(dst, id.Origin), id.Seq)
}

func readMsgID(r *core.Reader) (id totalorder.MsgID, err error) {
	if id.Origin, err = r.Name(); err == nil {
		id.Seq, err = r.Uvarint()
	}
	return id, err
}

func (m acceptMsg) encode() []byte {
	room := acceptRoom(m.ID, m.Ref)
	return m.frameAround(append(make([]byte, room, room+len(m.Payload)), m.Payload...), room)
}

// acceptRoom bounds what an ACCEPT of round id on ref puts ahead of its
// payload: the tag, the strings, and ten uvarints (three string lengths,
// the MsgID's seq, the fence, two positions, the payload's length).
func acceptRoom(id totalorder.MsgID, ref core.Ref) int {
	return 1 + len(id.Origin) + len(ref.Type) + len(ref.Key) + 10*binary.MaxVarintLen64
}

// frameAround writes m's fields, ahead of the payload that buf holds past
// its first room bytes (m.Payload is not read), into that room, and
// returns the frame: buf from where the fields start. A round's payload
// encoded behind that room (encodeRound) so becomes its ACCEPT in place.
func (m acceptMsg) frameAround(buf []byte, room int) []byte {
	h := appendRef(appendMsgID(append(buf[:0], frameAccept), m.ID), m.Ref)
	h = appendPosition(appendPosition(binary.AppendUvarint(h, m.Fence), m.Prev), m.At)
	h = binary.AppendUvarint(h, uint64(len(buf)-room))
	start := room - len(h)
	copy(buf[start:room], h)
	return buf[start:]
}

// decodeAccept decodes an ACCEPT frame, its ref through known (readRefOn;
// nil: a fresh key string).
func decodeAccept(data []byte, known func(string, []byte) core.Ref) (acceptMsg, error) {
	m, err := core.DecodeFrame(data, frameAccept, func(r *core.Reader) (m acceptMsg, err error) {
		if m.ID, err = readMsgID(r); err == nil {
			m.Ref, err = readRefOn(r, known)
		}
		if err == nil {
			m.Fence, err = r.Uvarint()
		}
		if err == nil {
			m.Prev, err = readPosition(r)
		}
		if err == nil {
			m.At, err = readPosition(r)
		}
		if err == nil {
			m.Payload, err = r.BytesView()
		}
		return m, err
	})
	if err != nil {
		return acceptMsg{}, fmt.Errorf("server: decode ACCEPT: %w", err)
	}
	return m, nil
}

// appendPosition appends p's epoch and seq; readPosition reads them back.
func appendPosition(dst []byte, p position) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(dst, p.Epoch), p.Seq)
}

func readPosition(r *core.Reader) (p position, err error) {
	if p.Epoch, err = r.Uvarint(); err == nil {
		p.Seq, err = r.Uvarint()
	}
	return p, err
}

// acceptAck is a member's reply to an ACCEPT, sent once it has applied the
// round at the position the ACCEPT named: the frame's tag alone.
type acceptAck struct{}

func (acceptAck) encode() []byte { return acceptAck{}.append(nil) }

func (acceptAck) append(dst []byte) []byte { return append(dst, frameAcceptReply) }

func decodeAcceptAck(data []byte) (acceptAck, error) {
	_, err := core.DecodeFrame(data, frameAcceptReply, func(*core.Reader) (acceptAck, error) { return acceptAck{}, nil })
	if err != nil {
		return acceptAck{}, fmt.Errorf("server: decode ACCEPT reply: %w", err)
	}
	return acceptAck{}, nil
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

// encodeRound builds the payload of a round carrying invs behind room
// spare bytes, where runRound writes the fields of the round's ACCEPT
// (acceptMsg.frameAround), so that the frame and the payload the WAL keeps
// are one allocation. The payload (buf[room:]) is the flag byte, then
// totalorder's batch container (totalorder.AppendBatch's bytes), each
// invocation appended in place behind the room its length prefix needs.
func encodeRound(room int, genesis bool, invs []core.Invocation) (buf []byte, err error) {
	size := room + 1 + binary.MaxVarintLen64
	for _, inv := range invs {
		size += binary.MaxVarintLen64 + core.InvocationSize(inv)
	}
	buf = make([]byte, room+1, size) // grown only past InvocationSize's bound
	buf[room] = roundExisting
	if genesis {
		buf[room] = roundGenesis
	}
	buf = binary.AppendUvarint(buf, uint64(len(invs)))
	for _, inv := range invs {
		at := len(buf)
		guess := uvarintLen(core.InvocationSize(inv))
		buf = append(buf, make([]byte, guess)...)
		if buf, err = core.AppendInvocation(buf, inv); err != nil {
			return nil, err
		}
		n := len(buf) - at - guess
		if w := uvarintLen(n); w != guess {
			// The encoding's length needs a prefix of another width than
			// its bound's: move it.
			buf = append(buf, make([]byte, max(w-guess, 0))...)
			copy(buf[at+w:], buf[at+guess:at+guess+n])
			buf = buf[:at+w+n]
		}
		binary.PutUvarint(buf[at:], uint64(n))
	}
	return buf, nil
}

// uvarintLen is the size of n as a uvarint.
func uvarintLen(n int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(n))
}

// readRound decodes a round payload in place: its flag byte, and each
// invocation of its container against ref (core.DecodeInvocationOn), so
// that they share ref's strings. Every invocation must be on ref; a mixed
// round is a protocol violation and voids it. A zero ref takes the first
// invocation's (WAL replay: a record names no ref). The invocations fill
// buf when they fit, so a caller with an array on its stack decodes a
// round of one without a slice. Nothing returned aliases payload.
func readRound(payload []byte, ref core.Ref, buf []core.Invocation) (genesis bool, invs []core.Invocation, err error) {
	if len(payload) == 0 {
		return false, nil, fmt.Errorf("server: empty round payload")
	}
	if payload[0] != roundExisting && payload[0] != roundGenesis {
		return false, nil, fmt.Errorf("server: bad round payload flag 0x%02x", payload[0])
	}
	invs = buf[:0]
	err = totalorder.WalkBatch(payload[1:], func(i, count int, part []byte) error {
		if i == 0 && count > cap(invs) {
			invs = make([]core.Invocation, 0, count)
		}
		inv, err := core.DecodeInvocationOn(part, ref)
		if err != nil {
			return fmt.Errorf("server: round part %d: %w", i, err)
		}
		if i == 0 && ref == (core.Ref{}) {
			ref = inv.Ref
		}
		if inv.Ref != ref {
			return fmt.Errorf("server: round mixes refs %s and %s", ref, inv.Ref)
		}
		invs = append(invs, inv)
		return nil
	})
	if err != nil {
		return false, nil, err
	}
	return payload[0] == roundGenesis, invs, nil
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
// ordered through a round. It looks the ref up once: the lane, the lease
// fence, admission, the migration fence and the apply take its record.
func (n *Node) invoke(ctx context.Context, inv core.Invocation) ([]any, error) {
	group, view := n.replicaGroup(inv.Ref, inv.Persist)
	if err := n.primacy(inv.Ref, group); err != nil {
		return nil, err
	}
	e := n.pin(inv.Ref, true)
	defer n.release(e)
	if e.fenced() {
		// Mid-migration: the copy is about to move and the directive flip
		// will change the primary. Bounce retryably; the client refreshes
		// its view and lands on the new home (see migrate.go).
		return nil, fmt.Errorf("%w: %s mid-migration on %s", core.ErrRebalancing, inv.Ref, n.cfg.ID)
	}
	if results, err, ok := n.tryLocalRead(ctx, e, inv, len(group)); ok {
		// Read-only calls at a provably-current primary skip the ordering
		// round entirely; writes it has not applied were never acked, so
		// the read linearizes at its execution under the object monitor.
		return results, err
	}
	// A replicated write goes through its ref's lane (lane.go); a group of
	// one has no ACCEPT to amortize, and a read no slot to take.
	write := !inv.ReadOnly && len(group) > 1
	if write {
		if w := n.enterLane(ctx, e, inv); w != nil {
			return n.awaitCut(ctx, e, w)
		}
		defer n.freeSlot(e)
	}
	// A round of one, right here: no queue, no goroutine hop, no timer, and
	// its outcome on this stack.
	var res [1]opResult
	ordered, err := n.runRound(ctx, e, group, view, []core.Invocation{inv}, res[:])
	if write && ordered {
		n.hBatchSize.ObserveValue(1)
	}
	if err != nil {
		return nil, err
	}
	return res[0].results, res[0].err
}

// runRound coordinates one ordering round for invs, which all target e's
// object, among group as view places it (see replicaGroup): primacy check,
// lease fence, the ref's open in the view's epoch (open), the local apply
// that sequences it (sequence), one ACCEPT to each other member, and the
// WAL wait, in that order and each exactly once however many invocations
// the round carries. A nil error means the round is applied at every group
// member and durable; the per-invocation outcomes (method errors included,
// which every replica reproduces) are then in res, index-aligned with
// invs. ordered reports whether the round was ordered — applied here at
// its position, the point from which it counts in smr_rounds, even if a
// member then refuses it or the WAL wait fails it.
func (n *Node) runRound(ctx context.Context, e *entry, group []ring.NodeID, view membership.View, invs []core.Invocation, res []opResult) (ordered bool, err error) {
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
		return false, err
	}
	if n.leases != nil && !readOnlyRound(invs) {
		// Grants resume once every member has applied the round.
		if err := n.leases.prepareWrite(ctx, e); err != nil {
			return false, err
		}
		defer e.endWrite()
	}
	genesis, err := n.open(ctx, e, group, view.ID)
	if err != nil {
		return false, err
	}
	m := acceptMsg{ID: totalorder.MsgID{Origin: string(n.cfg.ID), Seq: n.seq.Add(1)}, Ref: ref,
		Fence: view.Fence(), At: position{Epoch: view.ID}}
	// A failure here is a codec bug, and nothing has been ordered yet. A
	// group of one encodes only for a persistent object's WAL record, and
	// needs no room for an ACCEPT's fields ahead of it.
	var buf, payload []byte
	room := 0
	if len(group) > 1 {
		room = acceptRoom(m.ID, ref)
	}
	if len(group) > 1 || (n.walEnabled() && invs[0].Persist) {
		if buf, err = encodeRound(room, genesis, invs); err != nil {
			return false, err
		}
		payload = buf[room:]
	}
	// Telemetry: attribute the whole ordering round — local apply, the
	// members' applies, their replies — to the active span so reports can
	// separate SMR cost from plain method execution.
	var orderStart time.Time
	if n.instrumented {
		orderStart = time.Now()
	}
	out := n.sequence(ctx, e, &m, genesis, invs, res, payload)
	if out.err != nil {
		return false, out.err
	}
	n.smrOps.Add(uint64(len(invs)))
	n.cSMRRounds.Inc()
	if len(group) > 1 {
		err = n.replicate(ctx, m.ID, group, m.frameAround(buf, room))
	}
	if n.instrumented {
		telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingSMR, time.Since(orderStart))
	}
	if err != nil {
		return true, err
	}
	if err := waitDurable(ctx, out.commit); err != nil {
		// The round is applied in memory but its record never reached cold
		// storage; acking would promise crash durability the tier cannot
		// honor. No ack — the clients' retries are dedup-safe.
		return true, err
	}
	if n.log.Enabled(ctx, slog.LevelDebug) {
		n.log.Debug("smr round complete", "ref", ref.String(), "id", m.ID.String(),
			"epoch", m.At.Epoch, "seq", m.At.Seq, "ops", len(invs), "group", group, "genesis", genesis)
	}
	return true, nil
}

// open makes e's copy the ref's highest in group before this node
// sequences under the view epoch, and reports whether the round must be
// flagged genesis: no copy anywhere in the group. A primary applies a
// round before it sends it, so one that sequenced on a copy behind a
// member's would stamp a round above history the group acked; the open
// polls every member's position through the fetch path and adopts a copy
// strictly ahead of this one (pullObject). It runs once per epoch and ref:
// a view that leaves the ref's group as it was carries the open over
// (rebalance), a restored or pulled record starts unopened, and a poll
// that any member answers busy or not at all fails the round retryably.
// One open or pull runs per record at a time; a round that finds one
// running waits for it.
func (n *Node) open(ctx context.Context, e *entry, group []ring.NodeID, epoch uint64) (genesis bool, err error) {
	for {
		e.rmu.Lock()
		resident, opened := e.obj != nil, e.opened == epoch
		e.rmu.Unlock()
		if opened {
			return !resident, nil
		}
		running := e.claimPull()
		if running == nil {
			break
		}
		select {
		case <-running:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	defer e.endPull()
	_, found, err := n.pullObject(ctx, e, group)
	e.rmu.Lock()
	defer e.rmu.Unlock()
	resident := e.obj != nil
	if err == nil && found && !resident {
		err = fmt.Errorf("%w: %s held at a peer but not adopted on %s", core.ErrRebalancing, e.ref, n.cfg.ID)
	}
	if err == nil {
		e.opened = epoch
	}
	return !resident, err
}

// sequence is the coordinator's half of a round: single-coordinator
// admission, the fences — the view the round's group came from must still
// be installed and no migration may hold the ref — the copy (created, for
// genesis), then the apply that gives the round its position
// (applyOrdered), which checks the fences again under the monitor. The
// first check keeps a stale round from creating anything; the second makes
// a hand-off either push the copy after the round or bounce it (DESIGN.md
// §5e). A group of one's round ends here. m carries the round's ID, fence
// and epoch in, and its positions out; res receives the per-invocation
// outcomes.
func (n *Node) sequence(ctx context.Context, e *entry, m *acceptMsg, genesis bool, invs []core.Invocation, res []opResult, payload []byte) roundOutcome {
	ref := e.ref
	if !e.admit(m.ID.Origin) {
		return roundOutcome{err: fmt.Errorf("%w: %s has a round in flight from another coordinator",
			core.ErrRebalancing, ref)}
	}
	defer e.settle()
	var err error
	if n.epoch.Load().fence != m.Fence || e.fenced() {
		err = fmt.Errorf("%w: round for %s fenced on %s (view changed or migrating)", core.ErrRebalancing, ref, n.cfg.ID)
	} else if genesis {
		_, err = n.createCopy(e, invs[0])
	} else if resident, _, _ := e.kind(); !resident {
		err = fmt.Errorf("%w: %s dropped on %s", core.ErrRebalancing, ref, n.cfg.ID)
	}
	if err != nil {
		return roundOutcome{err: err}
	}
	return n.applyOrdered(ctx, e, m, genesis, invs, res, payload)
}

// replicate sends a round's ACCEPT to every member of group but this node
// (group[0]). The last member is called inline and the others on the
// node's pooled accept workers, so a round starts no goroutine.
func (n *Node) replicate(ctx context.Context, id totalorder.MsgID, group []ring.NodeID, body []byte) error {
	var fan *acceptFan
	if len(group) > 2 {
		fan = fanPool.Get().(*acceptFan)
		fan.wg.Add(len(group) - 2)
		for _, m := range group[1 : len(group)-1] {
			n.acceptWorkers.Go(acceptTask{ctx: ctx, id: id, member: m, body: body, fan: fan})
		}
	}
	err := n.acceptAt(ctx, id, group[len(group)-1], body)
	if fan != nil {
		fan.wg.Wait()
		if err == nil {
			err = fan.err
		}
		fan.err = nil
		fanPool.Put(fan)
	}
	return err
}

// acceptTask is one member's ACCEPT of a round whose group has more than
// two members, run by runAccept on an accept worker.
type acceptTask struct {
	ctx    context.Context
	id     totalorder.MsgID
	member ring.NodeID
	body   []byte
	fan    *acceptFan
}

// acceptFan collects the verdicts of one round's pooled ACCEPTs: the
// first error, and a WaitGroup that replicate waits on. Fans are pooled,
// so a round allocates none once the pool is warm.
type acceptFan struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

var fanPool = sync.Pool{New: func() any { return new(acceptFan) }}

// runAccept is the accept workers' task: one acceptAt, its verdict
// recorded on the round's fan.
func (n *Node) runAccept(t acceptTask) {
	err := n.acceptAt(t.ctx, t.id, t.member, t.body)
	if err != nil {
		t.fan.mu.Lock()
		if t.fan.err == nil {
			t.fan.err = err
		}
		t.fan.mu.Unlock()
	}
	t.fan.wg.Done()
}

// acceptAt sends one member a round's ACCEPT and reads its ack.
func (n *Node) acceptAt(ctx context.Context, id totalorder.MsgID, member ring.NodeID, body []byte) error {
	err := n.peerCall(ctx, member, KindAccept, body, func(out []byte) error {
		_, err := decodeAcceptAck(out)
		return err
	})
	if err == nil {
		return nil
	}
	// The member is unreachable, refused the round, or the view is
	// changing: the client re-routes on the rebalancing sentinel, and dedup
	// makes the retry safe although the round applied here.
	return fmt.Errorf("%w: round %s on %s: %v", core.ErrRebalancing, id, member, err)
}

// handleAccept services a peer's ACCEPT: the view fence, single-coordinator
// admission on the ref's record, then the apply at the round's position
// (applyOrdered), acked once applied. A round fenced on the directory's
// latest view, which this node has not installed yet, comes from a
// coordinator ahead of it and waits up to waitTimeout for that install;
// any other mismatch is refused at once. A refused round has already
// applied at its coordinator, so this member would miss it and hold the
// ref's next rounds: a round refused by admission therefore pulls a copy
// at once (selfHeal).
//
// The payload is read in place (readRound) and aliases body, which the rpc
// server recycles once this handler returns: it is copied only for the
// WAL, which keeps it until a flush. The ack goes out in a pooled buffer
// that the rpc server recycles.
func (n *Node) handleAccept(ctx context.Context, body []byte) ([]byte, error) {
	msg, err := decodeAccept(body, n.knownRef)
	if err != nil {
		return nil, err
	}
	if ep := n.epoch.Load(); msg.Fence != ep.fence && msg.Fence == n.cfg.Directory.View().Fence() {
		n.awaitView(ctx, ep)
	}
	if msg.Fence != n.epoch.Load().fence {
		return nil, fmt.Errorf("%w: round %s fenced on %s (view mismatch)",
			core.ErrRebalancing, msg.ID, n.cfg.ID)
	}
	var one [1]core.Invocation
	genesis, invs, err := readRound(msg.Payload, msg.Ref, one[:])
	if err != nil {
		return nil, err
	}
	if n.walEnabled() && !readOnlyRound(invs) {
		msg.Payload = bytes.Clone(msg.Payload)
	}
	e := n.pin(msg.Ref, true)
	defer n.release(e)
	if !e.admit(msg.ID.Origin) {
		go n.selfHeal(msg.Ref)
		return nil, fmt.Errorf("%w: %s has a round in flight from another coordinator",
			core.ErrRebalancing, msg.Ref)
	}
	defer e.settle()
	if out := n.applyOrdered(ctx, e, &msg, genesis, invs, nil, msg.Payload); out.err != nil {
		return nil, out.err
	}
	return acceptAck{}.append(rpc.GetBuffer(0)), nil
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

// applyOrdered runs every invocation of a round, in payload order, on e's
// copy under a single member write fence and a single monitor
// acquisition, at the round's position. The coordinator passes a zero
// m.At.Seq: the round takes the position after its copy's in the
// critical section that applies it, and m.Prev and m.At record both. A
// member's round waits until its copy stands at m.Prev (awaitTurn). Each
// invocation is dedup-checked and recorded (applyLocked), so a retry that
// lands in a later round replays. Rebalancing-class failures (no base
// copy, a fence, a hand-off, another predecessor) void the round before
// any invocation runs and leave the position where it was; method errors
// are per-invocation outcomes and count as applied.
//
// A member applies a round for a ref it holds no copy of only when the
// coordinator flagged it genesis. Otherwise the round overtook the genesis
// round that creates the copy here, or the hand-off has not arrived: it
// waits for the copy (awaitCopy). Past that bound, applying to a fresh
// object would fork the lineage, so the round is refused and a pull
// started.
//
// res receives the per-invocation outcomes; a member passes nil. A
// coordinator's round comes from sequence, which made sure of the copy,
// and bounces when its view is no longer installed or a migration fences
// the ref: every hand-off follows a view change, so a round that finds
// its view under the monitor applies to a copy not handed off since.
func (n *Node) applyOrdered(ctx context.Context, e *entry, m *acceptMsg, genesis bool, invs []core.Invocation, res []opResult, payload []byte) (out roundOutcome) {
	ref := e.ref
	if n.beforeApply != nil {
		n.beforeApply(ref)
	}
	member := m.At.Seq != 0
	if member && genesis {
		if _, out.err = n.createCopy(e, invs[0]); out.err != nil {
			return out
		}
	} else if member && !n.awaitCopy(ctx, e, m.Fence) {
		n.log.Debug("refusing round without base copy",
			"ref", ref.String(), "origin", m.ID.Origin, "ops", len(invs))
		go n.selfHeal(ref)
		out.err = fmt.Errorf("%w: %s has no base copy on %s", core.ErrRebalancing, ref, n.cfg.ID)
		return out
	}
	readOnly := readOnlyRound(invs)
	if !readOnly && n.leases != nil && member {
		// One revocation covers every write of the round; the
		// coordinator's own apply is covered by its prepareWrite.
		if err := n.leases.memberWriteFence(e); err != nil {
			// No ack (the retries are dedup-safe), and heal: the
			// coordinator applied, so our copy is now behind.
			go n.selfHeal(ref)
			out.err = err
			return out
		}
		defer e.endWrite()
	}
	n.lockEntry(ctx, e)
	dup := false
	switch {
	case member:
		dup, out.err = n.awaitTurn(ctx, e, m)
	case m.Fence != n.epoch.Load().fence || e.fencedLocked():
		out.err = fmt.Errorf("%w: round for %s fenced on %s (view changed or migrating)", core.ErrRebalancing, ref, n.cfg.ID)
	case m.At.Epoch < e.pos.Epoch:
		out.err = fmt.Errorf("%w: %s's copy on %s is from a later view than the round", core.ErrRebalancing, ref, n.cfg.ID)
	default:
		m.Prev, m.At = e.pos, e.pos.next(m.At.Epoch)
	}
	if !dup && out.err == nil && e.obj == nil {
		out.err = core.ErrRebalancing // handed off
	}
	if dup || out.err != nil {
		e.mu.Unlock()
		return out
	}
	n.applyLocked(ctx, e, invs, res)
	e.advance(m.ID, m.At)
	if !readOnly && e.persist {
		// One record carries the whole round; replay re-applies its
		// invocations through the same dedup window. Every replica logs
		// its own WAL; only the coordinator's ticket gates the ack. Under
		// the monitor: records of one ref are logged in position order.
		out.commit = n.appendWAL(m.ID, m.At, payload)
	}
	e.mu.Unlock()
	k := telemetry.ObjectKey{Type: ref.Type, Key: ref.Key}
	n.objTrack.ObserveApply(k, len(invs))
	n.bundleTrack.ObserveApply(k, len(invs))
	if n.log.Enabled(ctx, slog.LevelDebug) {
		n.log.Debug("smr round applied", "ref", ref.String(), "id", m.ID.String(),
			"epoch", m.At.Epoch, "seq", m.At.Seq, "ops", len(invs))
	}
	return out
}

// awaitTurn holds a member's round until e's copy stands at its
// predecessor m.Prev, and returns with e.mu held as it was called. It
// reports a round e already applied (a duplicate ACCEPT, acked again), and
// an error when the round may not apply: its fence is no longer the
// installed view's (a view change wakes every parked round), the copy is
// at or past it, the copy is past its predecessor on another history, or
// the predecessor never came. A round parked past waitTimeout pulls a copy
// (pullObject), which moves the copy to the pulled one's position, and
// then applies or gives up.
func (n *Node) awaitTurn(ctx context.Context, e *entry, m *acceptMsg) (dup bool, err error) {
	ref := e.ref
	var timer *time.Timer
	for pulled := false; ; {
		ep := n.epoch.Load()
		if m.Fence != ep.fence {
			return false, fmt.Errorf("%w: round %s fenced on %s (view changed)", core.ErrRebalancing, m.ID, n.cfg.ID)
		}
		switch e.laneTurn(m.ID, m.Prev, m.At) {
		case laneApply:
			return false, nil
		case laneDone:
			return true, nil
		case laneStale:
			return false, fmt.Errorf("%w: round %s at %v is behind %s's copy of %s at %v",
				core.ErrRebalancing, m.ID, m.At, n.cfg.ID, ref, e.pos)
		case laneFork:
			// This copy ran other rounds past the coordinator's: applying
			// here would ack a result two histories computed. Pull the
			// coordinator's copy, which is strictly ahead (it applied the
			// round).
			n.cForkRefusals.Inc()
			go n.selfHeal(ref)
			return false, fmt.Errorf("%w: round %s follows %v, %s's copy of %s is at %v",
				core.ErrRebalancing, m.ID, m.Prev, n.cfg.ID, ref, e.pos)
		}
		if pulled {
			return false, fmt.Errorf("%w: %s is missing rounds of %s before %v",
				core.ErrRebalancing, n.cfg.ID, ref, m.At)
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
			return false, ctx.Err()
		case <-timer.C:
			group, _ := n.replicaGroup(ref, true)
			pctx, cancel := context.WithTimeout(ctx, 2*n.waitTimeout())
			_, _, _ = n.pullObject(pctx, e, group)
			cancel()
			pulled = true
		}
		e.mu.Lock()
	}
}

// laneMemory is how many applied rounds a copy remembers, so that a
// duplicate ACCEPT (a redialed or duplicated frame) is acked again rather
// than refused. Two covers every write round, inline or cut: a primary
// keeps at most pipelineDepth of a ref's in flight (lane.go). A duplicate
// of an older round is refused, which costs its client a retry, not a fork.
const laneMemory = pipelineDepth

// laneRecord is one remembered round.
type laneRecord struct {
	at position
	id totalorder.MsgID
}

type laneVerdict uint8

const (
	laneApply laneVerdict = iota // the copy stands at the round's predecessor
	laneWait                     // the copy is behind the predecessor
	laneDone                     // applied already: ack it again
	laneStale                    // the copy is at or past the round, not by it
	laneFork                     // the copy is past the predecessor but not at the round
)

// laneTurn says what a member's round from prev to at does next (e.mu
// held). Only a copy at exactly prev applies it.
func (e *entry) laneTurn(id totalorder.MsgID, prev, at position) laneVerdict {
	switch {
	case e.pos == prev:
		return laneApply
	case e.pos.less(prev):
		return laneWait
	case e.pos.less(at):
		return laneFork
	}
	if r := e.recent[at.Seq%laneMemory]; r.at == at && r.id == id {
		return laneDone
	}
	return laneStale
}

// next is the position of the round after p sequenced under epoch.
func (p position) next(epoch uint64) position {
	if p.Epoch != epoch {
		return position{Epoch: epoch, Seq: 1}
	}
	return position{Epoch: epoch, Seq: p.Seq + 1}
}

// advance records the round id applied at position at (e.mu held).
func (e *entry) advance(id totalorder.MsgID, at position) {
	e.setPos(at)
	e.recent[at.Seq%laneMemory] = laneRecord{at: at, id: id}
}

// setPos moves the copy to position p and wakes the rounds parked on it
// (e.mu held).
func (e *entry) setPos(p position) {
	e.pos = p
	if e.turn != nil {
		close(e.turn)
		e.turn = nil
	}
}

// peerCall performs one inter-node RPC with simulated replica-link latency,
// a per-attempt timeout (see Config.PeerCallTimeout) and a single redial on
// connection failure. A peer's refusal (rpc.RemoteError) comes back as is:
// the connection is sound, and other calls share it. The timeout is what
// turns a frame lost in the network into an error the round can fail
// with; an unbounded call would hold the round, and its client, forever.
//
// decode, when not nil, reads the reply and must copy what it keeps: the
// reply goes back to rpc's payload pool as soon as decode returns, so a
// call leaves no buffer to the garbage collector. Its error is peerCall's.
func (n *Node) peerCall(ctx context.Context, id ring.NodeID, kind uint8, body []byte, decode func([]byte) error) error {
	if err := n.profile.Delay(ctx, n.profile.DSOReplica); err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		c, err := n.peer(id)
		if err != nil {
			return err
		}
		out, err := c.CallTimeout(ctx, kind, body, n.peerTimeout)
		if err == nil {
			if decode != nil {
				err = decode(out)
			}
			rpc.PutBuffer(out)
			return err
		}
		// Declared only on an error: errors.As moves it to the heap.
		var refused rpc.RemoteError
		if errors.As(err, &refused) {
			return err
		}
		n.dropPeer(id)
		if attempt >= 1 || ctx.Err() != nil {
			return err
		}
		// Brief pause before redial: the peer may be restarting.
		if err := pause(ctx, time.Millisecond); err != nil {
			return err
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
