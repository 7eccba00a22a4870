package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/rpc"
)

// Rebalancing (paper Section 4.1): when a view is installed, nodes
// re-balance objects according to the new consistent-hashing ring. For each
// resident data object, the first surviving member of the old replica set
// pushes snapshots to the nodes that joined the new replica set; nodes that
// left the set drop their copy. Synchronization objects are ephemeral and
// are never transferred (their waiters are connection-bound).

// transferMsg carries one object snapshot between nodes, and is what a
// checkpoint stores per object. Dedup moves the at-most-once window with
// the object, so a client retry that lands on the object's new home after
// a view change still replays instead of re-executing.
//
// At is the snapshot's position in its ref's order. A receiver installs
// the snapshot only over a copy at a strictly lower position (or none): a
// snapshot races the rounds that keep applying while it crosses the
// network, and installing one at or below the local copy would roll back
// acknowledged updates — the classic lost update during hand-off.
type transferMsg struct {
	Ref      core.Ref
	Init     []any
	Persist  bool
	Snapshot []byte
	Dedup    dedupState
	At       position
}

// fetchReq is a KindFetch pull: the ref, and the position of the puller's
// copy (zero: it holds none).
type fetchReq struct {
	Ref  core.Ref
	Have position
}

// fetchResp answers a KindFetch pull. Found is false when this node holds
// no copy; Busy is set when the object has accepted-but-unapplied rounds
// here. A busy snapshot would miss an operation the puller may never
// receive from its coordinator (it was not in that round's group), so the
// puller must retry rather than adopt it — and must not mistake Busy for
// "no copy anywhere" and create the object fresh. At is this copy's
// position, and Msg the copy itself, sent only when it is strictly ahead
// of the puller's: a copy the puller already covers ships neither its
// snapshot nor its dedup window.
type fetchResp struct {
	Found, Busy bool
	At          position
	Msg         *transferMsg
}

// The transfer record and the fetch frames are control frames like the
// ACCEPT one (see smr.go): a tag byte, then the fields, decoded strictly
// and copied out. A checkpoint blob is one frameTransfer frame, so a blob
// written by another layout (a gob one from an older build) does not
// decode and recovery skips it.
const (
	frameTransfer  byte = 'T' // transferMsg (appendTransfer)
	frameFetch     byte = 'G' // fetchReq: Ref, Have
	frameFetchResp byte = 'g' // Found, Busy, At, a copy byte, transferMsg (appendTransfer) when set
)

// appendTransfer appends Ref, Init values, Persist, Snapshot, the dedup
// window (appendDedup) and At. It fails only when a value has no encoding
// (see core.AppendValues).
func appendTransfer(dst []byte, m transferMsg) ([]byte, error) {
	dst, err := core.AppendValues(appendRef(dst, m.Ref), m.Init)
	if err != nil {
		return nil, err
	}
	dst = core.AppendBytes(core.AppendBool(dst, m.Persist), m.Snapshot)
	if dst, err = appendDedup(dst, m.Dedup); err != nil {
		return nil, err
	}
	return appendPosition(dst, m.At), nil
}

func readTransfer(r *core.Reader) (m transferMsg, err error) {
	if m.Ref, err = readRef(r); err == nil {
		m.Init, err = r.Values()
	}
	if err == nil {
		m.Persist, err = r.Bool()
	}
	if err == nil {
		m.Snapshot, err = r.Bytes()
	}
	if err == nil {
		m.Dedup, err = readDedup(r)
	}
	if err == nil {
		m.At, err = readPosition(r)
	}
	return m, err
}

// transferSize sizes a frame for m's fixed-size parts; a dedup window
// grows it.
func transferSize(m transferMsg) int {
	return len(m.Ref.Type) + len(m.Ref.Key) + len(m.Snapshot) + 8
}

// encode returns the KindTransfer frame (also a checkpoint blob).
func (m transferMsg) encode() ([]byte, error) {
	b, err := appendTransfer(core.NewFrame(frameTransfer, transferSize(m), 8), m)
	if err != nil {
		return nil, fmt.Errorf("server: encode transfer %s: %w", m.Ref, err)
	}
	return b, nil
}

func decodeTransfer(data []byte) (transferMsg, error) {
	m, err := core.DecodeFrame(data, frameTransfer, readTransfer)
	if err != nil {
		return transferMsg{}, fmt.Errorf("server: decode transfer: %w", err)
	}
	return m, nil
}

// encode returns the KindFetch request frame.
func (q fetchReq) encode() []byte {
	return appendPosition(appendRef(core.NewFrame(frameFetch, len(q.Ref.Type)+len(q.Ref.Key), 4), q.Ref), q.Have)
}

func decodeFetch(data []byte) (fetchReq, error) {
	q, err := core.DecodeFrame(data, frameFetch, func(r *core.Reader) (q fetchReq, err error) {
		if q.Ref, err = readRef(r); err == nil {
			q.Have, err = readPosition(r)
		}
		return q, err
	})
	if err != nil {
		return fetchReq{}, fmt.Errorf("server: decode fetch: %w", err)
	}
	return q, nil
}

func (f fetchResp) encode() ([]byte, error) {
	return f.append(make([]byte, 0, f.size()))
}

// size bounds the frame's fixed-size parts; a dedup window grows it.
func (f fetchResp) size() int {
	size := 4 + 2*binary.MaxVarintLen64
	if f.Msg != nil {
		size += transferSize(*f.Msg) + 8*binary.MaxVarintLen64
	}
	return size
}

// append appends the frame to dst.
func (f fetchResp) append(dst []byte) ([]byte, error) {
	b := core.AppendBool(core.AppendBool(append(dst, frameFetchResp), f.Found), f.Busy)
	b = core.AppendBool(appendPosition(b, f.At), f.Msg != nil)
	if f.Msg == nil {
		return b, nil
	}
	b, err := appendTransfer(b, *f.Msg)
	if err != nil {
		return nil, fmt.Errorf("server: encode fetch reply %s: %w", f.Msg.Ref, err)
	}
	return b, nil
}

func decodeFetchResp(data []byte) (fetchResp, error) {
	f, err := core.DecodeFrame(data, frameFetchResp, func(r *core.Reader) (f fetchResp, err error) {
		if f.Found, err = r.Bool(); err == nil {
			f.Busy, err = r.Bool()
		}
		if err == nil {
			f.At, err = readPosition(r)
		}
		var ships bool
		if err == nil {
			ships, err = r.Bool()
		}
		if err == nil && ships {
			var m transferMsg
			m, err = readTransfer(r)
			f.Msg = &m
		}
		return f, err
	})
	if err != nil {
		return fetchResp{}, fmt.Errorf("server: decode fetch reply: %w", err)
	}
	return f, nil
}

// viewEpoch is an installed view's fence, which every round's fence is
// checked against, its ID, the epoch of the positions its rounds take, and
// a channel closed when the next view installs, which wakes the rounds
// waiting on a view (handleAccept, awaitTurn) so that they check it again.
type viewEpoch struct {
	fence, id uint64
	next      chan struct{}
}

// onView installs a new view and rebalances. The directory serializes
// listener invocations, so onView never runs concurrently with itself.
func (n *Node) onView(v membership.View) {
	n.viewMu.Lock()
	oldView := n.view
	oldRing := n.ringCur
	n.view = v
	n.ringCur = n.cfg.Directory.RingFor(v)
	newRing := n.ringCur
	close(n.epoch.Swap(&viewEpoch{fence: v.Fence(), id: v.ID, next: make(chan struct{})}).next)
	n.viewMu.Unlock()

	if oldRing == nil || n.closed.Load() {
		return
	}
	if n.leases != nil {
		// Fence first, rebalance second: ownership just moved under every
		// lease this node granted, and the new owners cannot revoke them
		// (they live in our table). Arm the one-TTL write fence and drop
		// the grants by best-effort invalidation (their expiry, bounded by
		// the fence, is the guarantee).
		n.leases.onViewChange()
	}
	n.log.Debug("view installed, rebalancing", "view", v.ID, "members", len(v.Members))
	n.rebalance(oldView, oldRing, newRing, v)
	// A migration fence held for an object this node no longer owns can
	// lift: the directive flip it was guarding has landed (or membership
	// moved the key anyway), and the new primary serves from here on. Not
	// before the rebalance: until the copy is dropped there, the fence is
	// what keeps a late rf=1 call off it (see sequence and applyOne).
	n.liftMigrationFences(v)
}

// rebalance moves objects after a placement change — a membership change,
// a directive flip, or both at once. Replica sets are computed under each
// view's own directive table, so a directive install moves exactly the
// directed key and a directive removal sends it back to its hash home. A
// ref whose replica set the view left as it was keeps its open (see open):
// no other node can have sequenced its rounds meanwhile.
func (n *Node) rebalance(oldView membership.View, oldRing, newRing *ring.Ring, v membership.View) {
	for _, e := range n.residents() {
		ref := e.ref
		_, persist, syncObj := e.kind()
		if syncObj {
			continue
		}
		rf := 1
		if persist {
			rf = n.cfg.RF
		}
		oldSet := oldView.Directives.PlaceRef(oldRing, ref.Type, ref.Key, rf)
		newSet := v.Directives.PlaceRef(newRing, ref.Type, ref.Key, rf)
		if slices.Equal(oldSet, newSet) {
			e.rmu.Lock()
			if e.opened == oldView.ID {
				e.opened = v.ID
			}
			e.rmu.Unlock()
		}
		// Deterministic pusher: the first old-set member still alive. The
		// local node counts as alive even when absent from the new view —
		// that is precisely the graceful-leave hand-off. Duplicate pushes
		// from two candidates are idempotent (transfer replaces).
		var pusher ring.NodeID
		for _, m := range oldSet {
			if m == n.cfg.ID || v.Contains(m) {
				pusher = m
				break
			}
		}
		if pusher == n.cfg.ID {
			// Push to every other member of the new set, not only the
			// joiners: a surviving member may have missed rounds, and the
			// receiver's position check makes refreshing an up-to-date copy
			// a no-op. Each view change thereby doubles as an anti-entropy
			// round.
			for _, target := range newSet {
				if target == n.cfg.ID {
					continue
				}
				if err := n.pushObject(e, target); err != nil {
					// Best effort: the target may be mid-join; the new
					// primary's open and a member's gap pull repair it.
					n.log.Debug("transfer failed", "ref", ref.String(),
						"target", string(target), "err", err)
				}
			}
		}
		if !slices.Contains(newSet, n.cfg.ID) {
			n.handOff(e)
		}
	}
}

// snapshotEntry captures one object's state under its monitor: snapshot
// bytes, position and at-most-once window, all from a single critical
// section so they describe the same instant.
func (n *Node) snapshotEntry(e *entry) (transferMsg, error) {
	ref := e.ref
	e.mu.Lock()
	snap, ok := e.obj.(core.Snapshotter)
	if !ok {
		e.mu.Unlock()
		return transferMsg{}, fmt.Errorf("server: %s (%T) is not resident and snapshotable", ref, e.obj)
	}
	data, err := snap.Snapshot()
	msg := transferMsg{
		Ref:      ref,
		Init:     e.init,
		Persist:  e.persist,
		Snapshot: data,
		Dedup:    e.dedup.clone(),
		At:       e.pos,
	}
	e.mu.Unlock()
	if err != nil {
		return transferMsg{}, fmt.Errorf("server: snapshot %s: %w", ref, err)
	}
	return msg, nil
}

// maxPushRounds bounds the snapshot/ship/re-check loop in pushObject. One
// round suffices when nothing raced the transfer; a second covers the
// common case of operations applying while the first snapshot crossed the
// network. Anything the bound leaves behind is repaired by the next view's
// anti-entropy push, an open or a gap pull.
const maxPushRounds = 3

// pushObject ships one object to target, repeating while rounds race the
// snapshot: a round that applies locally after the snapshot was taken is
// missing from it, and — if the target missed that round — only a newer
// snapshot can deliver it. The loop exits as soon as the copy still
// stands at the shipped snapshot's position.
func (n *Node) pushObject(e *entry, target ring.NodeID) error {
	ref := e.ref
	for round := 0; round < maxPushRounds; round++ {
		// Quiesce before snapshotting: an admitted round is not in the
		// snapshot, and the target, outside that round's group, can only
		// get it from a later one. Rather than ship a behind copy that would
		// look resident at the target, give up: a target with no copy
		// pulls on its next access under the fetch barrier.
		for wait := 0; wait < 8 && e.busy(); wait++ {
			time.Sleep(10 * time.Millisecond)
		}
		if e.busy() {
			return fmt.Errorf("server: transfer %s to %s: ops in flight", ref, target)
		}
		msg, err := n.snapshotEntry(e)
		if err != nil {
			return err
		}
		body, err := msg.encode()
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = n.peerCall(ctx, target, KindTransfer, body, nil)
		cancel()
		if err != nil {
			return fmt.Errorf("server: transfer %s to %s: %w", ref, target, err)
		}
		n.transfers.Add(1)
		n.cTransfers.Inc()
		e.mu.Lock()
		settled := e.pos == msg.At
		e.mu.Unlock()
		if settled {
			return nil
		}
	}
	return nil
}

// handOff drops a copy this node handed off, or no longer holds the
// responsibility for (see dropCopy).
func (n *Node) handOff(e *entry) {
	if e.dropCopy(false) {
		n.dropIfIdle(e)
	}
}

// installTransfer materializes a received snapshot, and reports whether it
// did: over no copy, or over one at a strictly lower position. A snapshot
// at or below the local copy's position was taken before rounds that have
// since applied here and is dropped (counted in transfers_stale). Updates
// happen in place — goroutines mid-delivery hold the entry pointer, and
// swapping the map entry under them would divert their apply to an
// orphan.
func (n *Node) installTransfer(msg transferMsg) (bool, error) {
	obj, err := n.newCopy(msg)
	if err != nil {
		return false, err
	}
	e := n.pin(msg.Ref, true)
	defer n.release(e)
	e.rmu.Lock()
	defer e.rmu.Unlock()
	if e.obj == nil {
		e.holdCopy(obj, msg.Persist, false, msg.Init, msg.Dedup, msg.At)
		n.transfers.Add(1)
		n.cTransfers.Inc()
		return true, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.pos.less(msg.At) {
		n.cTransfersStale.Inc()
		n.log.Debug("stale transfer ignored", "ref", msg.Ref.String(),
			"local", e.pos, "snapshot", msg.At)
		return false, nil
	}
	e.obj = obj
	e.init = msg.Init
	e.dedup = msg.Dedup
	e.setPos(msg.At)
	if n.leases != nil && len(e.holders) > 0 {
		// The copy just changed under any lease we granted on it (an
		// anti-entropy refresh landing while we hold grants). The view
		// fence already covers the hand-off case; this best-effort
		// invalidation covers the refresh case without waiting.
		go n.leases.revokeAsync(e)
	}
	// State changed under waiters (synchronization objects are never
	// transferred, but be safe).
	e.cond.Broadcast()
	n.transfers.Add(1)
	n.cTransfers.Inc()
	return true, nil
}

// handleFetch answers a peer's pull (KindFetch): our position, and our
// copy when it is strictly ahead of the puller's, or that we hold none.
func (n *Node) handleFetch(payload []byte) ([]byte, error) {
	req, err := decodeFetch(payload)
	if err != nil {
		return nil, err
	}
	e := n.pin(req.Ref, false)
	if e == nil {
		return fetchResp{}.encode()
	}
	defer n.release(e)
	if resident, _, _ := e.kind(); !resident {
		return fetchResp{}.encode()
	}
	if e.busy() {
		return fetchResp{Found: true, Busy: true}.encode()
	}
	e.mu.Lock()
	resp := fetchResp{Found: true, At: e.pos}
	e.mu.Unlock()
	if req.Have == (position{}) || req.Have.less(resp.At) {
		msg, err := n.snapshotEntry(e)
		if err != nil {
			return nil, err
		}
		resp.At, resp.Msg = msg.At, &msg
	}
	// In a pooled buffer, which the rpc server recycles.
	return resp.append(rpc.GetBuffer(resp.size()))
}

// pullObject asks the other members of e's replica group for their
// positions and adopts the highest copy strictly ahead of e's (see
// installTransfer). It reports whether a copy was installed, whether any
// member holds one, and an error when some member did not answer or
// answered busy (admitted rounds there: the object exists but its copy is
// unavailable, never absent).
func (n *Node) pullObject(ctx context.Context, e *entry, group []ring.NodeID) (installed, found bool, err error) {
	ref := e.ref
	req := fetchReq{Ref: ref}
	e.mu.Lock()
	if e.obj != nil {
		req.Have = e.pos
	}
	e.mu.Unlock()
	body := req.encode()
	var best *transferMsg
	for _, m := range group {
		if m == n.cfg.ID {
			continue
		}
		var resp fetchResp
		cerr := n.peerCall(ctx, m, KindFetch, body, func(out []byte) (err error) {
			resp, err = decodeFetchResp(out)
			return err
		})
		switch {
		case cerr != nil:
			err = fmt.Errorf("%w: pull %s from %s: %v", core.ErrRebalancing, ref, m, cerr)
		case resp.Busy:
			err = fmt.Errorf("%w: %s busy at %s", core.ErrRebalancing, ref, m)
		case resp.Found:
			found = true
			if resp.Msg != nil && (best == nil || best.At.less(resp.Msg.At)) {
				best = resp.Msg
			}
		}
	}
	if best != nil {
		ok, ierr := n.installTransfer(*best)
		if ierr != nil {
			n.log.Debug("pull install failed", "ref", ref.String(), "err", ierr)
		}
		if ok {
			installed = true
			n.cPulls.Inc()
			n.log.Debug("adopted copy from peer", "ref", ref.String(), "at", best.At)
		}
	}
	return installed, found, err
}

// selfHeal runs a background pull for a ref whose round this member could
// not apply (no base copy, another predecessor, a refused admission or
// lease fence), one per ref at a time: it restores the replication factor
// now rather than at the next round's gap pull.
func (n *Node) selfHeal(ref core.Ref) {
	e := n.pin(ref, true)
	defer n.release(e)
	if e.claimPull() != nil {
		return
	}
	defer e.endPull()
	if group, _ := n.replicaGroup(ref, true); len(group) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 2*n.waitTimeout())
		defer cancel()
		_, _, _ = n.pullObject(ctx, e, group)
	}
}
