package server

import (
	"context"
	"fmt"
	"slices"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/ring"
)

// Rebalancing (paper Section 4.1): when a view is installed, nodes
// re-balance objects according to the new consistent-hashing ring. For each
// resident data object, the first surviving member of the old replica set
// pushes snapshots to the nodes that joined the new replica set; nodes that
// left the set drop their copy. Synchronization objects are ephemeral and
// are never transferred (their waiters are connection-bound).

// transferMsg carries one object snapshot between nodes. Dedup moves the
// at-most-once window with the object, so a client retry that lands on the
// object's new home after a view change still replays instead of
// re-executing. Pre-dedup peers simply omit the field (gob tolerates
// absent fields), leaving the window empty — their retries degrade to
// at-least-once, exactly the old behavior.
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
// has accepted-but-undelivered proposals here. A busy snapshot would miss
// an operation the puller may never receive by multicast (it was not in
// that op's group), so the puller must retry rather than adopt it — and
// must not mistake Busy for "no copy anywhere" and create the object
// fresh.
type fetchResp struct {
	Found bool
	Busy  bool
	Msg   transferMsg
}

// onView installs a new view and rebalances. The directory serializes
// listener invocations, so onView never runs concurrently with itself.
func (n *Node) onView(v membership.View) {
	n.viewMu.Lock()
	oldView := n.view
	oldRing := n.ringCur
	n.view = v
	n.ringCur = v.Ring()
	newRing := n.ringCur
	n.viewMu.Unlock()

	if oldRing == nil || n.closed.Load() {
		return
	}
	if n.leases != nil {
		// Fence first, rebalance second: ownership just moved under every
		// lease this node granted, and the new owners cannot revoke them
		// (they live in our table). Arm the one-TTL write fence and drop
		// everything — held replica leases immediately, granted leases by
		// best-effort invalidation (their expiry, bounded by the fence, is
		// the guarantee).
		n.leases.onViewChange()
	}
	n.log.Debug("view installed, rebalancing", "view", v.ID, "members", len(v.Members))
	// Flush the total-order layer: a coordinator that died mid-multicast
	// must not hold back deliveries forever (view-synchrony flush).
	alive := func(origin string) bool {
		return origin == string(n.cfg.ID) || v.Contains(ring.NodeID(origin))
	}
	n.to.PurgeOrigins(alive)
	n.inflight.purge(alive)
	n.rebalance(oldView, oldRing, newRing, v)
	// A migration fence held for an object this node no longer owns can
	// lift: the directive flip it was guarding has landed (or membership
	// moved the key anyway), and the new primary serves from here on. Not
	// before the rebalance: until the copy is dropped there, the fence is
	// what keeps a late rf=1 call off it (see apply).
	n.liftMigrationFences(v)
}

// rebalance moves objects after a placement change — a membership change,
// a directive flip, or both at once. Replica sets are computed under each
// view's own directive table, so a directive install moves exactly the
// directed key and a directive removal sends it back to its hash home.
func (n *Node) rebalance(oldView membership.View, oldRing, newRing *ring.Ring, v membership.View) {
	refs, entries := n.residents()

	for i, ref := range refs {
		e := entries[i]
		if e.sync {
			continue
		}
		rf := 1
		if e.persist {
			rf = n.cfg.RF
		}
		key := ref.String()
		oldSet := oldView.Directives.Place(oldRing, key, rf)
		newSet := v.Directives.Place(newRing, key, rf)
		if !slices.Contains(oldSet, n.cfg.ID) {
			// We hold a copy we were not responsible for (leftover of an
			// earlier view); drop it if we are not responsible now either —
			// unless it is stale-marked, in which case it may be the best
			// surviving state of its lineage and is kept for a future poll.
			if !slices.Contains(newSet, n.cfg.ID) {
				if !n.isStale(ref) {
					n.removeObject(ref)
				}
				continue
			}
			// Re-entering the replica set with a leftover copy: every op
			// committed while this node sat outside the set bypassed it
			// without a trace — no skipped delivery, no transfer, nothing
			// that would betray how far behind the copy is. Mark it so the
			// write, grant, and read paths treat it as suspect until a
			// proving pull (see markStale); the copy itself stays, both as
			// a pull fallback for the group and so the mark has something
			// to clear onto.
			n.markStale(ref)
			n.log.Debug("leftover copy rejoining replica set marked stale",
				"ref", ref.String(), "old_set", fmt.Sprint(oldSet),
				"new_set", fmt.Sprint(newSet))
			// Resolve proactively rather than waiting for an access to
			// trip over the mark. The common benign case — a hand-off
			// transfer that landed just before this view was processed,
			// making the fresh copy look like a leftover — clears on the
			// first definitive poll.
			go n.selfHeal(ref)
			continue
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
			// joiners: a surviving member may have missed operations (its
			// base copy never arrived, so it skipped committed deliveries —
			// see applyOrdered), and the version check on the receiving side
			// makes refreshing an up-to-date copy a no-op. Each view change
			// thereby doubles as an anti-entropy round.
			for _, target := range newSet {
				if target == n.cfg.ID {
					continue
				}
				if err := n.pushObject(ref, e, target, false); err != nil {
					// Best effort: the target may be mid-join; clients
					// retry on ErrWrongNode and repair on next access.
					n.log.Debug("transfer failed", "ref", ref.String(),
						"target", string(target), "err", err)
					continue
				}
			}
		}
		if !slices.Contains(newSet, n.cfg.ID) && !n.isStale(ref) {
			n.removeObject(ref)
		}
	}
}

// snapshotEntry captures one object's state under its monitor: snapshot
// bytes, apply version and at-most-once window, all from a single critical
// section so they describe the same instant.
func (n *Node) snapshotEntry(ref core.Ref, e *entry) (transferMsg, error) {
	e.mu.Lock()
	snap, ok := e.obj.(core.Snapshotter)
	if !ok {
		e.mu.Unlock()
		return transferMsg{}, fmt.Errorf("server: %s (%T) is not snapshotable", ref, e.obj)
	}
	data, err := snap.Snapshot()
	msg := transferMsg{
		Ref:      ref,
		Init:     e.init,
		Persist:  e.persist,
		Snapshot: data,
		Dedup:    e.dedup.clone(),
		Version:  e.version,
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
func (n *Node) pushObject(ref core.Ref, e *entry, target ring.NodeID, repair bool) error {
	for round := 0; round < maxPushRounds; round++ {
		// Quiesce before snapshotting: an accepted-but-undelivered proposal
		// is invisible to the snapshot, and the target — not a member of
		// that op's group — can only ever get it from a snapshot taken
		// after it applied. If the object will not quiesce within the
		// bound, abort rather than ship: a target left non-resident is
		// safe (its next access pulls under the fetch barrier), while a
		// target holding a behind snapshot looks resident and would
		// coordinate writes and grant leases from it.
		for wait := 0; wait < 8 && n.inflight.busy(ref); wait++ {
			time.Sleep(10 * time.Millisecond)
		}
		if n.inflight.busy(ref) {
			return fmt.Errorf("server: transfer %s to %s: ops in flight", ref, target)
		}
		msg, err := n.snapshotEntry(ref, e)
		if err != nil {
			return err
		}
		// A marked copy still ships — it may be the lineage's best
		// surviving state — but the taint travels with it (see
		// transferMsg.Stale).
		msg.Stale = n.isStale(ref)
		msg.Repair = repair
		body, err := core.EncodeValue(msg)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = n.peerCall(ctx, target, KindTransfer, body)
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

// removeObject drops a local copy, waking any (stale) waiters first and
// bouncing whoever still holds the entry (see entry.transferring).
func (n *Node) removeObject(ref core.Ref) {
	n.objMu.Lock()
	e, ok := n.objects[ref]
	if ok {
		delete(n.objects, ref)
	}
	n.objMu.Unlock()
	if ok {
		e.mu.Lock()
		e.transferring = true
		e.cond.Broadcast()
		e.mu.Unlock()
	}
}

// handleTransfer installs a pushed snapshot.
func (n *Node) handleTransfer(payload []byte) ([]byte, error) {
	var msg transferMsg
	if err := core.DecodeValue(payload, &msg); err != nil {
		return nil, err
	}
	if err := n.installTransfer(msg); err != nil {
		return nil, err
	}
	return nil, nil
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
	info, err := n.cfg.Registry.Lookup(msg.Ref.Type)
	if err != nil {
		return err
	}
	obj, err := info.New(msg.Init)
	if err != nil {
		return fmt.Errorf("server: transfer create %s: %w", msg.Ref, err)
	}
	snap, ok := obj.(core.Snapshotter)
	if !ok {
		return fmt.Errorf("server: transferred type %s is not snapshotable", msg.Ref.Type)
	}
	if err := snap.Restore(msg.Snapshot); err != nil {
		return fmt.Errorf("server: restore %s: %w", msg.Ref, err)
	}

	n.objMu.Lock()
	e, exists := n.objects[msg.Ref]
	if !exists {
		if msg.Stale {
			// The sender's copy carried a stale mark; the taint arrives
			// with the copy (marked before the entry is published, so the
			// copy never looks both resident and clean).
			n.markStale(msg.Ref)
		}
		e = newEntry(obj, msg.Persist, false, msg.Init)
		e.dedup = msg.Dedup
		e.version = msg.Version
		n.objects[msg.Ref] = e
		n.objMu.Unlock()
		n.transfers.Add(1)
		n.cTransfers.Inc()
		return nil
	}
	// Lock order objMu → e.mu matches the rest of the package (nothing
	// acquires objMu while holding an entry lock).
	e.mu.Lock()
	n.objMu.Unlock()
	defer e.mu.Unlock()
	if e.version > msg.Version || (e.version == msg.Version && !msg.Repair) {
		n.cTransfersStale.Inc()
		n.log.Debug("stale transfer ignored", "ref", msg.Ref.String(),
			"local_version", e.version, "snapshot_version", msg.Version)
		return nil
	}
	if msg.Stale {
		// Adopting a tainted snapshot taints the local copy (a refused
		// one, above, does not: the local copy stays as it was).
		n.markStale(msg.Ref)
	}
	e.obj = obj
	e.init = msg.Init
	e.dedup = msg.Dedup
	e.version = msg.Version
	if n.leases != nil {
		// The copy just changed under any lease we granted on it (an
		// anti-entropy refresh landing while we hold grants). The view
		// fence already covers the hand-off case; this best-effort
		// invalidation covers the refresh case without waiting.
		ref := msg.Ref
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*n.leases.ttl)
			defer cancel()
			_ = n.leases.revokeAll(ctx, ref, false)
		}()
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
	var ref core.Ref
	if err := core.DecodeValue(payload, &ref); err != nil {
		return nil, err
	}
	e, ok := n.lookupExisting(ref)
	if !ok {
		return core.EncodeValue(fetchResp{})
	}
	if n.inflight.busy(ref) {
		return core.EncodeValue(fetchResp{Found: true, Busy: true})
	}
	// Snapshot first, then read the mark: a skip recorded between the two
	// taints a snapshot that is actually fine, which is merely
	// conservative — the reverse order could export an unmarked stale
	// copy.
	msg, err := n.snapshotEntry(ref, e)
	if err != nil {
		return nil, err
	}
	msg.Stale = n.isStale(ref)
	return core.EncodeValue(fetchResp{Found: true, Msg: msg})
}

// pullObject asks the other members of ref's replica group for an existing
// copy and adopts the best one offered (version-checked, like any
// transfer). It returns whether a copy was installed, and whether some
// peer holds a copy it could not serve yet (busy: in-flight ops there —
// the caller must treat the object as existing-but-unavailable, never as
// absent). The primary uses it before treating a local miss as object
// creation: a miss can equally mean the hand-off transfer never arrived,
// and creating a fresh object would fork the lineage and silently discard
// all prior state.
//
// pullObject is also how a stale mark (see markStale) is resolved. A
// clean (unmarked) snapshot from a peer is a proof of currency: the fetch
// was answered under the peer's in-flight barrier, so its version counts
// the full committed history, and either installing it or already
// covering its version clears the mark. When no clean copy exists but
// every group member answered definitively — a snapshot (clean or
// tainted) or a firm "no copy" — the primary adopts the highest-versioned
// state on offer and clears its mark anyway: the poll proves no better
// copy survives anywhere in the group, and an op acknowledged under the
// apply-at-every-member barrier (see handleFinal) is on at least one
// surviving copy after any single failure, so the adopted maximum
// contains every acknowledged write. An unreachable or busy peer makes
// the poll indefinite and the mark stays.
func (n *Node) pullObject(ctx context.Context, ref core.Ref, group []ring.NodeID) (installed, busy bool) {
	// Read the stale token before the first fetch: only a fetch issued
	// after the skip proves currency, and a skip recorded mid-pull must
	// keep the mark.
	token, wasStale := n.staleToken(ref)
	body, err := core.EncodeValue(ref)
	if err != nil {
		return false, false
	}
	var (
		answers    []fetchResp
		definitive = true
	)
	for _, m := range group {
		if m == n.cfg.ID {
			continue
		}
		out, err := n.peerCall(ctx, m, KindFetch, body)
		if err != nil {
			definitive = false
			continue
		}
		var resp fetchResp
		if core.DecodeValue(out, &resp) != nil {
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
			if e, ok := n.lookupExisting(ref); ok {
				e.mu.Lock()
				cleanProof = e.version >= best.Msg.Version
				e.mu.Unlock()
			}
			n.log.Debug("pull install failed", "ref", ref.String(), "err", err)
		} else {
			n.log.Debug("pull install failed", "ref", ref.String(), "err", err)
		}
	}

	if wasStale {
		switch {
		case cleanProof:
			n.clearStale(ref, token)
		case definitive && len(group) > 0 && group[0] == n.cfg.ID:
			// Fully-definitive poll, no clean copy anywhere in the group:
			// whatever this node now holds (its own copy, or the best
			// tainted snapshot just adopted) is the lineage's best
			// surviving state, and the primary declares it current.
			// Clearing with a fresh token also erases the taint the
			// adopted snapshot may just have re-recorded; no new skip can
			// have raced in, since skips only happen on non-resident
			// deliveries and the copy is resident now.
			tok, marked := n.staleToken(ref)
			if marked {
				n.clearStale(ref, tok)
			}
			n.log.Info("primary adopted best surviving copy after group poll",
				"ref", ref.String())
		}
	}
	return installed, busy
}

// markStale records that ref's local copy — present or future — is behind
// the committed history: a committed delivery was skipped because no base
// copy was resident (applyOrdered). The danger is not the skip itself but
// what can follow it: a rebalance push may later install a snapshot taken
// *before* the skipped op, leaving this node resident-but-behind. Such a
// copy looks authoritative — it passes the resident checks on the write,
// lease-grant, and local-read paths — yet coordinating a write on it acks
// results computed on state missing acknowledged operations, and granting
// a lease from it serves reads that travel backwards in time.
//
// The mark is cleared only through pullObject, whose fetch carries a
// proof of currency: handleFetch answers busy while the peer has accepted
// ops still in flight, so a non-busy fetch issued after the skip returns
// a snapshot that includes every op committed before the fetch — in
// particular, every op this node skipped. Anti-entropy pushes install
// copies but never clear the mark (a push's snapshot may predate the
// skip); they merely make the subsequent proving pull cheap.
func (n *Node) markStale(ref core.Ref) {
	n.staleMu.Lock()
	if n.staleRefs == nil {
		n.staleRefs = make(map[core.Ref]uint64)
	}
	n.staleSeq++
	n.staleRefs[ref] = n.staleSeq
	n.staleMu.Unlock()
}

// staleToken returns the current stale mark for ref, if any. Callers that
// intend to clear the mark must capture the token before issuing the
// fetch that will justify the clear.
func (n *Node) staleToken(ref core.Ref) (uint64, bool) {
	n.staleMu.Lock()
	defer n.staleMu.Unlock()
	tok, ok := n.staleRefs[ref]
	return tok, ok
}

// isStale reports whether ref's local copy is marked behind the committed
// history. While true, this node must not coordinate writes, grant
// leases, or serve reads for ref from its own copy.
func (n *Node) isStale(ref core.Ref) bool {
	n.staleMu.Lock()
	defer n.staleMu.Unlock()
	_, ok := n.staleRefs[ref]
	return ok
}

// clearStale drops ref's stale mark, unless a newer skip was recorded
// after token was captured (that skip still needs its own proving pull).
func (n *Node) clearStale(ref core.Ref, token uint64) {
	n.staleMu.Lock()
	if tok, ok := n.staleRefs[ref]; ok && tok == token {
		delete(n.staleRefs, ref)
	}
	n.staleMu.Unlock()
}

// selfHeal runs a background pull for an object whose committed delivery
// had to be skipped for want of a base copy (singleflight per ref). Until
// a copy arrives this replica contributes nothing for the object; pulling
// promptly restores the replication factor instead of waiting for the
// next view change's anti-entropy push.
func (n *Node) selfHeal(ref core.Ref) {
	n.pullMu.Lock()
	if n.pulling == nil {
		n.pulling = make(map[core.Ref]bool)
	}
	if n.pulling[ref] {
		n.pullMu.Unlock()
		return
	}
	n.pulling[ref] = true
	n.pullMu.Unlock()
	defer func() {
		n.pullMu.Lock()
		delete(n.pulling, ref)
		n.pullMu.Unlock()
	}()

	group, _ := n.replicaGroup(ref, true)
	if len(group) == 0 {
		return
	}
	timeout := 2 * n.peerTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	n.pullObject(ctx, ref, group)
}
