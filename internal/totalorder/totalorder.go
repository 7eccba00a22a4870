// Package totalorder names replication rounds (MsgID) and frames their
// batched payloads (AppendBatch). It also implements Skeen's total-order
// multicast algorithm, the primitive Infinispan's replication relies on
// (paper Section 4.1/5: JGroups' TOA protocol uses it); the server orders
// each object at its primary instead (DESIGN.md §1), and only the
// benchmark's per-layer probe still runs the Skeen half.
//
// Protocol, per message m multicast to group G:
//
//  1. The sender sends PROPOSE(m) to every node of G.
//  2. Each receiver increments its logical clock, stores m as pending with
//     the proposed timestamp, and returns that timestamp.
//  3. The sender takes the maximum of all proposals as the final timestamp
//     and sends FINAL(m, ts) to every node of G.
//  4. A receiver marks m final, advances its clock to max(clock, ts), and
//     delivers, in timestamp order, every final message whose timestamp is
//     smaller than the (proposed or final) timestamp of every other pending
//     message. Ties break on message id, which is globally unique.
//
// Because a pending message's final timestamp can only be >= its proposed
// timestamp at this node, the delivery rule is safe, and all nodes deliver
// overlapping messages in the same total order.
package totalorder

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// MsgID uniquely identifies a multicast message: the originating sender
// plus a sender-local sequence number.
type MsgID struct {
	Origin string
	Seq    uint64
}

// String renders the id for logs and tie-breaking.
func (m MsgID) String() string { return fmt.Sprintf("%s/%d", m.Origin, m.Seq) }

// Less orders ids deterministically for timestamp ties.
func (m MsgID) Less(o MsgID) bool {
	if m.Origin != o.Origin {
		return m.Origin < o.Origin
	}
	return m.Seq < o.Seq
}

// Deliver is invoked exactly once per message, in total order, on the
// node's delivery goroutine. Implementations must not block indefinitely.
// The return value reports whether the message was actually applied to
// local state: an SMR layer that has to skip an op (no base copy for the
// object yet) returns false, and WaitDelivered surfaces that to the
// coordinator so the op is not acknowledged as stable here.
type Deliver func(id MsgID, payload []byte) bool

type pendingMsg struct {
	id      MsgID
	payload []byte
	ts      uint64
	final   bool
	added   time.Time
}

// Node is one group member's state machine for the protocol. A Node is
// driven by HandlePropose/HandleFinal (wired to the node's RPC layer) and
// delivers through the callback given at construction. Safe for concurrent
// use.
type Node struct {
	id      string
	deliver Deliver

	// deliverMu serializes HandleFinal end-to-end so that the pop order
	// (decided under mu) equals the callback order: without it, two
	// concurrent finals could pop m1 then m2 but run deliver(m2) first.
	deliverMu sync.Mutex

	mu      sync.Mutex
	clock   uint64
	ttl     time.Duration
	pending map[MsgID]*pendingMsg
	// recent remembers what became of recently delivered messages; its
	// bound is the window within which duplicates are recognised (see
	// outcomes).
	recent    outcomes
	applyCond *sync.Cond

	// closed aborts WaitDelivered early (see Close).
	closed bool
}

// NewNode builds a protocol node. id must be the node's cluster-unique
// name; deliver receives messages in total order.
func NewNode(id string, deliver Deliver) *Node {
	n := &Node{
		id:      id,
		deliver: deliver,
		pending: make(map[MsgID]*pendingMsg),
		recent:  outcomes{cur: map[MsgID]outcome{}, old: map[MsgID]outcome{}},
	}
	n.applyCond = sync.NewCond(&n.mu)
	return n
}

// ID returns the node's name.
func (n *Node) ID() string { return n.id }

// Clock returns the current logical clock (for tests and introspection).
func (n *Node) Clock() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.clock
}

// HandlePropose records a pending message and returns this node's proposed
// timestamp. It is idempotent: re-proposing a known message returns the
// original proposal.
func (n *Node) HandlePropose(id MsgID, payload []byte) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, done := n.recent.get(id); done {
		// Retry of an already-delivered message: echo a harmless value.
		return n.clock
	}
	if p, ok := n.pending[id]; ok {
		return p.ts
	}
	n.clock++
	n.pending[id] = &pendingMsg{id: id, payload: payload, ts: n.clock, added: time.Now()}
	return n.clock
}

// SetPendingTTL bounds how long a proposed-but-never-finalized message may
// sit at the head of the queue. A coordinator that fails between PROPOSE
// and FINAL normally cleans up with ABORT (or is purged on view change),
// but under message loss the ABORT itself can vanish — the TTL is the last
// line of defense against a zombie proposal blocking delivery forever.
// Expired orphans are discarded the next time a delivery is attempted.
// Pick a TTL comfortably above the coordinator's propose/abort timeout: a
// FINAL that arrives for an already-expired message is ignored, so too
// small a TTL can drop an operation that the rest of the group delivers
// (repaired only by the next view change's state transfer). Zero disables
// the sweep.
func (n *Node) SetPendingTTL(d time.Duration) {
	n.mu.Lock()
	n.ttl = d
	n.mu.Unlock()
}

// HandleFinal assigns the final timestamp to a pending message and delivers
// every message that became deliverable. Delivery happens synchronously on
// the caller's goroutine, outside the node lock, preserving order.
func (n *Node) HandleFinal(id MsgID, ts uint64) {
	n.deliverMu.Lock()
	defer n.deliverMu.Unlock()
	n.mu.Lock()
	if _, done := n.recent.get(id); done {
		n.mu.Unlock()
		return
	}
	p, ok := n.pending[id]
	if !ok {
		// FINAL for a message we never stored (the orphan TTL discarded
		// it, or a stale retry). Fabricating a final entry here would
		// deliver a payload-less message, so ignore it; if the rest of
		// the group delivered, the next state transfer reconciles us.
		n.mu.Unlock()
		return
	}
	p.ts = ts
	p.final = true
	if ts > n.clock {
		n.clock = ts
	}
	ready := n.collectDeliverableLocked()
	n.mu.Unlock()

	n.deliverAll(ready)
}

// deliverAll runs the deliver callback for each popped message, in order,
// and records each callback's applied result for WaitDelivered.
func (n *Node) deliverAll(ready []*pendingMsg) {
	if len(ready) == 0 {
		return
	}
	results := make([]bool, len(ready))
	for i, m := range ready {
		results[i] = n.deliver(m.id, m.payload)
	}
	n.mu.Lock()
	for i, m := range ready {
		o := outcomeSkipped
		if results[i] {
			o = outcomeApplied
		}
		n.recent.set(m.id, o)
	}
	n.mu.Unlock()
	n.applyCond.Broadcast()
}

// WaitDelivered blocks until the deliver callback for id has returned on
// this node, or until timeout elapses, and reports whether the callback
// applied the message. The SMR layer's FINAL handler uses it to withhold
// the coordinator's ack until the operation is applied here, not merely
// finalized: a finalized message can sit behind an earlier pending one,
// and an ack issued in that window would describe state held only in the
// coordinator's memory — a coordinator crash would then silently drop an
// acknowledged operation. A callback that declined to apply (skipped for
// want of a base copy) fails the wait immediately for the same reason.
func (n *Node) WaitDelivered(id MsgID, timeout time.Duration) bool {
	timer := time.AfterFunc(timeout, func() { n.applyCond.Broadcast() })
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if o, present := n.recent.get(id); present && o != outcomePopped {
			return o == outcomeApplied
		}
		if n.closed || !time.Now().Before(deadline) {
			return false
		}
		n.applyCond.Wait()
	}
}

// Close aborts every in-flight and future WaitDelivered with a negative
// verdict. A node shutting down must not sit out the full wait bound for
// messages that will never be applied — a FINAL handler parked in
// WaitDelivered would stall the whole shutdown behind it.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.applyCond.Broadcast()
}

// collectDeliverableLocked pops, in order, every final message whose
// (ts, id) precedes all other pending messages.
func (n *Node) collectDeliverableLocked() []*pendingMsg {
	var out []*pendingMsg
	for {
		var min *pendingMsg
		for _, p := range n.pending {
			if min == nil || less(p, min) {
				min = p
			}
		}
		if min == nil {
			return out
		}
		if !min.final {
			if n.ttl > 0 && !min.added.IsZero() && time.Since(min.added) > n.ttl {
				// Expired orphan: its coordinator's ABORT never reached
				// us. Discard so it cannot block delivery forever.
				delete(n.pending, min.id)
				continue
			}
			return out
		}
		delete(n.pending, min.id)
		n.recent.set(min.id, outcomePopped)
		out = append(out, min)
	}
}

func less(a, b *pendingMsg) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.id.Less(b.id)
}

// Drop removes one pending, not-yet-finalized message and delivers
// whatever that unblocks. Senders call it (directly and through
// Transport.Abort) when a multicast fails partway, so an abandoned
// message cannot hold back later deliveries.
func (n *Node) Drop(id MsgID) {
	n.deliverMu.Lock()
	defer n.deliverMu.Unlock()
	n.mu.Lock()
	if p, ok := n.pending[id]; ok && !p.final {
		delete(n.pending, id)
	}
	ready := n.collectDeliverableLocked()
	n.mu.Unlock()
	n.deliverAll(ready)
}

// PurgeOrigins removes pending messages that were proposed but never
// finalized by origins that are no longer alive, then delivers whatever
// that unblocks. It implements the flush step of view synchrony: a
// coordinator that dies between PROPOSE and FINAL would otherwise leave a
// zombie pending message that holds back every later delivery. Messages
// that already have their final timestamp are kept and delivered normally.
func (n *Node) PurgeOrigins(alive func(origin string) bool) {
	n.deliverMu.Lock()
	defer n.deliverMu.Unlock()
	n.mu.Lock()
	for id, p := range n.pending {
		if !p.final && !alive(id.Origin) {
			delete(n.pending, id)
		}
	}
	ready := n.collectDeliverableLocked()
	n.mu.Unlock()
	n.deliverAll(ready)
}

// PendingCount reports how many messages await delivery (for tests).
func (n *Node) PendingCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// outcome is what became of a delivered message.
type outcome uint8

const (
	// outcomePopped: taken off the pending queue, callback still running.
	// The message counts as delivered from this moment on, or a retried
	// PROPOSE could re-enqueue (and double-deliver) it mid-callback.
	outcomePopped  outcome = iota + 1
	outcomeApplied         // the callback returned true
	outcomeSkipped         // the callback returned false
)

// outcomeGeneration is how many delivered messages one generation of a
// Node's outcome memory holds: two full generations measured 650 KB (80
// bytes an entry, origin strings included).
const outcomeGeneration = 1 << 12

// outcomes is the two-generation memory of recent delivery outcomes that
// HandlePropose's idempotence, HandleFinal's duplicate check and
// WaitDelivered read. A message enters it when popped and stays in the
// generation it entered when its outcome is recorded. When the current
// generation fills, it becomes the old one and the old one is dropped, so
// the memory never holds more than two generations, and a message is
// remembered for at least one full generation of later deliveries at this
// node (outcomeGeneration, 4 096) and at most two.
//
// A duplicate PROPOSE or FINAL that arrives within that window is
// recognised: the PROPOSE is answered without re-queueing the message, the
// FINAL delivers nothing and WaitDelivered reports the recorded outcome.
// Network-duplicated frames arrive within milliseconds, far inside the
// window. A coordinator re-sends a FINAL only after its first attempt
// failed or timed out (the server's Config.PeerCallTimeout), and a node
// that delivers more than a generation's worth of messages in that time
// may have forgotten it. A duplicate that arrives after the window is
// taken for a new message. A late FINAL
// finds nothing pending and is ignored; the FINAL handler's WaitDelivered
// on the forgotten id waits out its timeout and reports false, so the
// coordinator fails the round with a retryable error (the operation is
// applied, and the client's retry replays it from the at-most-once
// window). A late PROPOSE is queued as a fresh pending message that no
// FINAL will follow: like any orphan, it holds back later deliveries until
// an ABORT, a view change's PurgeOrigins or the pending TTL (SetPendingTTL)
// discards it, and it is never delivered.
type outcomes struct {
	cur, old map[MsgID]outcome
}

func (o *outcomes) get(id MsgID) (outcome, bool) {
	if v, ok := o.cur[id]; ok {
		return v, true
	}
	v, ok := o.old[id]
	return v, ok
}

// set records id's outcome: in place where id is remembered, else in the
// current generation, rotating first if that is full.
func (o *outcomes) set(id MsgID, v outcome) {
	if _, ok := o.cur[id]; ok {
		o.cur[id] = v
		return
	}
	if _, ok := o.old[id]; ok {
		o.old[id] = v
		return
	}
	if len(o.cur) >= outcomeGeneration {
		o.old, o.cur = o.cur, map[MsgID]outcome{}
	}
	o.cur[id] = v
}

// Transport carries protocol messages to group members. The DSO server
// implements it over its inter-node RPC connections; tests use an
// in-process fake.
type Transport interface {
	// Propose asks target to timestamp the message and returns the
	// proposal.
	Propose(ctx context.Context, target string, id MsgID, payload []byte) (uint64, error)
	// Final announces the final timestamp to target.
	Final(ctx context.Context, target string, id MsgID, ts uint64) error
	// Abort asks target to drop a pending, not-yet-finalized message
	// (best effort, used when a multicast fails partway).
	Abort(ctx context.Context, target string, id MsgID) error
}

// Multicast runs the sender side of the protocol: it proposes to every
// member of group, computes the final timestamp, and distributes it. The
// group must be non-empty. On error the message may be stuck pending at a
// subset of the group; the caller (SMR layer) is responsible for retrying
// in a new view.
func Multicast(ctx context.Context, tr Transport, group []string, id MsgID, payload []byte) error {
	if len(group) == 0 {
		return fmt.Errorf("totalorder: empty group for %s", id)
	}
	// Deterministic order keeps tests reproducible; correctness does not
	// depend on it.
	members := make([]string, len(group))
	copy(members, group)
	sort.Strings(members)

	type proposal struct {
		ts  uint64
		err error
	}
	proposals := make(chan proposal, len(members))
	for _, m := range members {
		go func(m string) {
			ts, err := tr.Propose(ctx, m, id, payload)
			proposals <- proposal{ts: ts, err: err}
		}(m)
	}
	var final uint64
	var proposeErr error
	for range members {
		p := <-proposals
		if p.err != nil && proposeErr == nil {
			proposeErr = p.err
		}
		if p.ts > final {
			final = p.ts
		}
	}
	if proposeErr != nil {
		// Clean up: members that did store the message must drop it, or
		// the abandoned proposal would block their later deliveries.
		abort(ctx, tr, members, id)
		return fmt.Errorf("totalorder: propose %s: %w", id, proposeErr)
	}

	errs := make(chan error, len(members))
	for _, m := range members {
		go func(m string) {
			errs <- tr.Final(ctx, m, id, final)
		}(m)
	}
	var finalErr error
	for range members {
		if err := <-errs; err != nil && finalErr == nil {
			finalErr = err
		}
	}
	if finalErr != nil {
		// Members that received FINAL will deliver; aborting only drops
		// the message where it never finalized. Replica divergence from a
		// crash at this point is repaired by the post-view state transfer
		// (see server rebalancing).
		abort(ctx, tr, members, id)
		return fmt.Errorf("totalorder: final %s: %w", id, finalErr)
	}
	return nil
}

// abort drops a message at every member. The first attempt is synchronous
// (callers may immediately multicast again and must not race their own
// cleanup); a member whose ABORT fails — e.g. the same fault that broke
// the multicast also eats the abort — is retried in the background, since
// an undropped proposal blocks that member's deliveries until the orphan
// TTL fires.
func abort(ctx context.Context, tr Transport, members []string, id MsgID) {
	for _, m := range members {
		if err := tr.Abort(ctx, m, id); err == nil {
			continue
		}
		go func(m string) {
			for attempt := 1; attempt <= 4; attempt++ {
				time.Sleep(time.Duration(attempt) * 25 * time.Millisecond)
				actx, cancel := context.WithTimeout(context.Background(), time.Second)
				err := tr.Abort(actx, m, id)
				cancel()
				if err == nil {
					return
				}
			}
		}(m)
	}
}
