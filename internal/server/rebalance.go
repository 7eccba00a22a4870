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
// Version is the snapshot's apply count (see entry.version). The receiver
// installs a snapshot only when it is strictly newer than its local copy:
// a snapshot races the operations that keep applying while it crosses the
// network, and installing a stale one would roll back acknowledged
// updates — the classic lost-update during hand-off.
type transferMsg struct {
	Ref      core.Ref
	Init     []any
	Persist  bool
	Snapshot []byte
	Dedup    dedupState
	Version  uint64
	// Fence and Seq are the copy's position in its ref's order (see
	// position): a receiver that installs it, or already holds the same
	// version, resumes its lane after it (see installTransfer).
	Fence, Seq uint64

	// Stale carries the sender's stale mark (see markStale) with the
	// snapshot: a copy that may be behind the committed history must not
	// shed that suspicion by crossing the network. The receiver installs
	// it (better a tainted copy than none) but marks the ref, so the
	// write, grant, and read paths keep refusing until a proving pull
	// finds a clean copy — or the primary's fully-definitive poll
	// concludes none exists (see pullObject).
	Stale bool

	// Repair marks the push the coordinator's fork check starts at a
	// member whose copy diverged (see checkRound); only that pusher sets
	// it. A repair replaces a copy of the *same* version too: diverged
	// copies can count their way to equal versions, and the tie is then
	// exactly the case the push exists to fix.
	Repair bool
}

// fetchResp answers a KindFetch pull: the requested object's snapshot,
// Found=false when this node holds no copy, or Busy=true when the object
// has accepted-but-unapplied rounds here. A busy snapshot would miss
// an operation the puller may never receive from its coordinator (it was
// not in that round's group), so the puller must retry rather than adopt it — and
// must not mistake Busy for "no copy anywhere" and create the object
// fresh.
type fetchResp struct {
	Found bool
	Busy  bool
	Msg   transferMsg
}

// The transfer record and the fetch frames are control frames like the
// ACCEPT one (see smr.go): a tag byte, then the fields, decoded strictly
// and copied out. A checkpoint blob is one frameTransfer frame, so a blob
// written by another layout (a gob one from an older build) does not
// decode and recovery skips it.
const (
	frameTransfer  byte = 'T' // transferMsg (appendTransfer)
	frameFetch     byte = 'G' // the requested Ref
	frameFetchResp byte = 'g' // Found byte, Busy byte, transferMsg (appendTransfer)
)

// appendTransfer appends Ref, Init values, Persist, Snapshot, the dedup
// window (appendDedup), Version, Fence, Seq, Stale and Repair. It fails only when a
// value has no encoding (see core.AppendValues).
func appendTransfer(dst []byte, m transferMsg) ([]byte, error) {
	dst, err := core.AppendValues(appendRef(dst, m.Ref), m.Init)
	if err != nil {
		return nil, err
	}
	dst = core.AppendBytes(core.AppendBool(dst, m.Persist), m.Snapshot)
	if dst, err = appendDedup(dst, m.Dedup); err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(dst, m.Version), m.Fence), m.Seq)
	return core.AppendBool(core.AppendBool(dst, m.Stale), m.Repair), nil
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
		m.Version, err = r.Uvarint()
	}
	if err == nil {
		m.Fence, err = r.Uvarint()
	}
	if err == nil {
		m.Seq, err = r.Uvarint()
	}
	if err == nil {
		m.Stale, err = r.Bool()
	}
	if err == nil {
		m.Repair, err = r.Bool()
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

// encodeFetch is the KindFetch request for ref.
func encodeFetch(ref core.Ref) []byte {
	return appendRef(core.NewFrame(frameFetch, len(ref.Type)+len(ref.Key), 2), ref)
}

func decodeFetch(data []byte) (core.Ref, error) {
	ref, err := core.DecodeFrame(data, frameFetch, readRef)
	if err != nil {
		return core.Ref{}, fmt.Errorf("server: decode fetch: %w", err)
	}
	return ref, nil
}

func (f fetchResp) encode() ([]byte, error) {
	return f.append(make([]byte, 0, f.size()))
}

// size bounds the frame's fixed-size parts; a dedup window grows it.
func (f fetchResp) size() int { return 3 + transferSize(f.Msg) + 8*binary.MaxVarintLen64 }

// append appends the frame to dst.
func (f fetchResp) append(dst []byte) ([]byte, error) {
	b := core.AppendBool(core.AppendBool(append(dst, frameFetchResp), f.Found), f.Busy)
	b, err := appendTransfer(b, f.Msg)
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
			f.Msg, err = readTransfer(r)
		}
		return f, err
	})
	if err != nil {
		return fetchResp{}, fmt.Errorf("server: decode fetch reply: %w", err)
	}
	return f, nil
}

// viewEpoch is an installed view's fence, which every round's fence is
// checked against, and a channel closed when the next view installs, which
// wakes the rounds waiting on a view (handleAccept, awaitTurn) so that
// they check it again.
type viewEpoch struct {
	fence uint64
	next  chan struct{}
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
	close(n.epoch.Swap(&viewEpoch{fence: v.Fence(), next: make(chan struct{})}).next)
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
// directed key and a directive removal sends it back to its hash home.
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
		inNew := slices.Contains(newSet, n.cfg.ID)
		switch {
		case pusher == n.cfg.ID:
			// Push to every other member of the new set, not only the
			// joiners: a surviving member may have skipped deliveries for
			// want of a base copy, and the receiver's version check makes
			// refreshing an up-to-date copy a no-op. Each view change thereby
			// doubles as an anti-entropy round.
			for _, target := range newSet {
				if target == n.cfg.ID {
					continue
				}
				if err := n.pushObject(e, target, false); err != nil {
					// Best effort: the target may be mid-join; clients
					// retry on ErrWrongNode and repair on next access.
					n.log.Debug("transfer failed", "ref", ref.String(),
						"target", string(target), "err", err)
				}
			}
		case inNew && !slices.Contains(oldSet, n.cfg.ID):
			// Re-entering the replica set with a leftover copy of an earlier
			// view: every op committed while this node sat outside the set
			// bypassed it without a trace. Mark it suspect until a proving
			// pull, started now; the common benign case, a hand-off that
			// landed just before this view was processed, clears on the
			// first definitive poll.
			n.markStale(ref)
			n.log.Debug("leftover copy rejoining replica set marked stale",
				"ref", ref.String(), "old_set", fmt.Sprint(oldSet),
				"new_set", fmt.Sprint(newSet))
			go n.selfHeal(ref)
		}
		// A copy this node is not responsible for goes, unless it is
		// stale-marked: then it may be the best surviving state of its
		// lineage, kept for a future poll.
		if !inNew && !e.isStale() {
			n.handOff(e)
		}
	}
}

// snapshotEntry captures one object's state under its monitor: snapshot
// bytes, apply version and at-most-once window, all from a single critical
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
		Version:  e.version,
		Fence:    e.pos.Fence,
		Seq:      e.pos.Seq,
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
// anti-entropy push.
const maxPushRounds = 3

// pushObject ships one object to target, repeating while operations race
// the snapshot: an op that applies locally after the snapshot was taken is
// missing from it, and — if the target skipped that op's delivery for want
// of a base copy — only a newer snapshot can deliver it. The loop exits as
// soon as a shipped snapshot's version still matches the entry, i.e. the
// target has everything this copy has. repair is transferMsg.Repair.
func (n *Node) pushObject(e *entry, target ring.NodeID, repair bool) error {
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
		// A marked copy still ships — it may be the lineage's best
		// surviving state — but the taint travels with it (see
		// transferMsg.Stale).
		msg.Stale = e.isStale()
		msg.Repair = repair
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
		settled := e.version == msg.Version
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

// installTransfer materializes a received snapshot, refusing to go
// backwards: if a local copy exists and has applied at least as many
// operations as the snapshot, the snapshot is stale (it was taken before
// ops that have since been applied and acknowledged) and is dropped —
// except that a fork-check repair also wins a tie (see transferMsg.Repair).
// Updates happen in place — goroutines mid-delivery hold the entry
// pointer, and swapping the map entry under them would divert their apply
// to an orphan.
func (n *Node) installTransfer(msg transferMsg) error {
	obj, err := n.newCopy(msg)
	if err != nil {
		return err
	}
	e := n.pin(msg.Ref, true)
	defer n.release(e)
	e.rmu.Lock()
	defer e.rmu.Unlock()
	at := position{Fence: msg.Fence, Seq: msg.Seq}
	if e.obj == nil {
		if msg.Stale {
			// The sender's copy carried a stale mark; the taint arrives
			// with the copy, marked before the copy is, so it never looks
			// both resident and clean.
			e.stale = n.staleSeq.Add(1)
		}
		e.holdCopy(obj, msg.Persist, false, msg.Init, msg.Dedup, msg.Version, at)
		n.transfers.Add(1)
		n.cTransfers.Inc()
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.version > msg.Version || (e.version == msg.Version && !msg.Repair) {
		if at.Fence == n.epoch.Load().fence && (e.pos.Fence != at.Fence || at.Seq > e.pos.Seq) {
			// Further along the installed view's order than this lane:
			// resume after it even though its state stays out. At an equal
			// version the rounds between were reads or replays; a copy
			// ahead of the sender's is a divergence that only the fork
			// check can settle, and it sees one only on rounds that apply.
			e.setPos(at)
		}
		n.cTransfersStale.Inc()
		n.log.Debug("stale transfer ignored", "ref", msg.Ref.String(),
			"local_version", e.version, "snapshot_version", msg.Version)
		return nil
	}
	if msg.Stale {
		// Adopting a tainted snapshot taints the local copy (a refused
		// one, above, does not: the local copy stays as it was).
		e.stale = n.staleSeq.Add(1)
	}
	e.obj = obj
	e.init = msg.Init
	e.dedup = msg.Dedup
	e.version = msg.Version
	if at.Fence != e.pos.Fence || at.Seq > e.pos.Seq {
		// Resume the lane after the copy; within one order a position
		// never moves back.
		e.setPos(at)
	}
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
	return nil
}

// handleFetch answers a peer's pull-on-miss (KindFetch): ship our copy of
// the requested object, or report that we hold none.
func (n *Node) handleFetch(payload []byte) ([]byte, error) {
	ref, err := decodeFetch(payload)
	if err != nil {
		return nil, err
	}
	e := n.pin(ref, false)
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
	// Snapshot first, then read the mark: a skip recorded between the two
	// taints a snapshot that is actually fine, which is merely
	// conservative — the reverse order could export an unmarked stale
	// copy.
	msg, err := n.snapshotEntry(e)
	if err != nil {
		return nil, err
	}
	msg.Stale = e.isStale()
	// In a pooled buffer, which the rpc server recycles.
	resp := fetchResp{Found: true, Msg: msg}
	return resp.append(rpc.GetBuffer(resp.size()))
}

// pullObject asks the other members of e's replica group for a copy and
// adopts the best one offered (version-checked, like any transfer). It
// returns whether a copy was installed, and whether some peer holds a copy
// it could not serve yet (busy: admitted rounds there — the object exists
// but is unavailable, never absent). A miss may mean the hand-off never
// arrived, so the primary pulls before it treats a miss as creation.
//
// It also resolves stale marks (DESIGN.md §5c, "Proving pulls"): a clean
// snapshot, fetched under the peer's admission barrier, proves currency
// whether it installs or the local copy already covers its version. When
// no clean copy exists but every member answered definitively, the
// primary adopts the best state on offer and clears its mark anyway: an
// acked op is on at least one surviving copy after any single failure. A
// member without a copy clears its mark when every member answered and
// none holds one.
func (n *Node) pullObject(ctx context.Context, e *entry, group []ring.NodeID) (installed, busy bool) {
	ref := e.ref
	// Read the stale token before the first fetch: only a fetch issued
	// after the skip proves currency, and a skip recorded mid-pull must
	// keep the mark.
	token := e.staleToken()
	body := encodeFetch(ref)
	var (
		answers    []fetchResp
		definitive = true
	)
	for _, m := range group {
		if m == n.cfg.ID {
			continue
		}
		var resp fetchResp
		err := n.peerCall(ctx, m, KindFetch, body, func(out []byte) (err error) {
			resp, err = decodeFetchResp(out)
			return err
		})
		if err != nil {
			definitive = false
			continue
		}
		if resp.Busy {
			busy = true
			definitive = false
			continue
		}
		if resp.Found {
			answers = append(answers, resp)
		}
	}

	// Prefer the best clean snapshot; fall back to the best tainted one.
	var best *fetchResp
	for i := range answers {
		a := &answers[i]
		if best == nil ||
			(!a.Msg.Stale && best.Msg.Stale) ||
			(a.Msg.Stale == best.Msg.Stale && a.Msg.Version > best.Msg.Version) {
			best = a
		}
	}
	cleanProof := false
	if best != nil {
		if err := n.installTransfer(best.Msg); err == nil {
			installed = true
			cleanProof = !best.Msg.Stale
			n.cPulls.Inc()
			n.log.Debug("adopted base copy from peer", "ref", ref.String(),
				"version", best.Msg.Version, "stale", best.Msg.Stale)
		} else if !best.Msg.Stale {
			// Usually "not strictly newer": if the local copy already
			// covers the clean snapshot's version, the barrier-protected
			// fetch proves it current.
			e.mu.Lock()
			cleanProof = e.obj != nil && e.version >= best.Msg.Version
			e.mu.Unlock()
			n.log.Debug("pull install failed", "ref", ref.String(), "err", err)
		} else {
			n.log.Debug("pull install failed", "ref", ref.String(), "err", err)
		}
	}

	if token != 0 {
		switch {
		case cleanProof:
			e.clearStale(token)
		case definitive && len(group) > 0 && group[0] == n.cfg.ID:
			// Fully-definitive poll, no clean copy anywhere in the group:
			// whatever this node now holds (its own copy, or the best
			// tainted snapshot just adopted) is the lineage's best
			// surviving state, and the primary declares it current.
			// Clearing with a fresh token also erases the taint the
			// adopted snapshot may just have re-recorded; no new skip can
			// have raced in, since skips only happen on non-resident
			// deliveries and the copy is resident now.
			e.clearStale(e.staleToken())
			n.log.Info("primary adopted best surviving copy after group poll",
				"ref", ref.String())
		case definitive && best == nil:
			// No copy in the group, at a member: with none here either,
			// the mark guards nothing and would keep the record for good.
			if resident, _, _ := e.kind(); !resident {
				e.clearStale(token)
			}
		}
	}
	return installed, busy
}

// selfHeal runs a background pull for an object whose committed delivery
// had to be skipped for want of a base copy, one per ref at a time (the
// record is pulling meanwhile): it restores the replication factor now
// rather than at the next view change's anti-entropy push.
func (n *Node) selfHeal(ref core.Ref) {
	e := n.pin(ref, true)
	defer n.release(e)
	if e.setPulling(true) {
		return
	}
	defer e.setPulling(false)
	if group, _ := n.replicaGroup(ref, true); len(group) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 2*n.waitTimeout())
		defer cancel()
		n.pullObject(ctx, e, group)
	}
}
