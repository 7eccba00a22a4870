package server

import (
	"context"
	"fmt"
	"sort"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/ring"
)

// Live hot-object migration (DESIGN.md §5g). A migration moves one object
// to an explicit placement while the cluster keeps serving, by composing
// machinery the hand-off path already trusts:
//
//	fence → revoke → quiesce → push → flip
//
// The source primary fences the object (new invocations bounce with
// ErrRebalancing, lease grants are refused), synchronously revokes every
// outstanding lease via prepareWrite, waits out in-flight SMR rounds,
// pushes a version-stamped snapshot (with the at-most-once dedup window)
// to the object's next replica set, and only then flips the placement
// directive in the directory. The flip installs a new view, so it rides
// every existing view-change safety hook: the view fence cuts off
// replication rounds routed by the old placement, the one-TTL lease fence
// covers grants the revocation round missed, and the ordinary rebalance
// pass doubles as anti-entropy for the copies just pushed.
//
// Safety argument, in terms of the invariants the rest of the package
// maintains:
//
//   - No dual primary: until the flip lands, only the fenced source
//     primary can coordinate for the ref (the directive table still names
//     it), and it is bouncing everything; after the flip, rounds
//     carrying the old view's fence are refused (handleAccept).
//   - No lost update: the push happens after the quiesce, so the snapshot
//     contains every applied operation, and the flip only happens after
//     the push to the new primary succeeded — the new primary never
//     creates the object fresh (pullObject would find the copy anyway).
//   - No stale read: leases die in prepareWrite before the copy moves, and
//     the flip's view install arms the one-TTL write fence on every node.

// migrationFenceTTL bounds how long a fence can outlive its migration: a
// coordinator stuck mid-push must not bounce the object forever. It
// comfortably exceeds pushObject's 30s per-transfer bound.
const migrationFenceTTL = 45 * time.Second

// MigrateCmd asks an object's primary to migrate it (KindMigrate). With
// Unpin set the object's placement directive is removed instead, sending
// it back to hash placement (Targets is ignored). Exported so dso-cli
// migrate can build the payload.
type MigrateCmd struct {
	Ref     core.Ref
	Targets []ring.NodeID
	Unpin   bool
}

// RebalanceStatus is one node's view of the resharding plane, the payload
// of KindRebalanceStatus (dso-cli rebalance status).
type RebalanceStatus struct {
	// Node is the reporting node; Coordinator is whether it currently runs
	// the rebalancer loop (enabled and first member of its view).
	Node        string
	Coordinator bool
	Enabled     bool
	// ViewID and DirectiveVersion identify the placement the node has
	// installed; Directives is the full override table (ref → targets).
	ViewID           uint64
	DirectiveVersion uint64
	Directives       map[string][]string
	// Fenced lists refs currently bouncing behind a migration fence here.
	Fenced []string
	// Migrations/MigrationsFailed/Scans are this node's lifetime counters.
	Migrations       uint64
	MigrationsFailed uint64
	Scans            uint64
	// Streaks is the rebalancer's hot-streak table (consecutive scans each
	// object has exceeded the hot thresholds); empty off the coordinator.
	Streaks map[string]int
}

// fenceMigration fences ref: until liftMigrationFence (or the TTL), this
// node bounces invocations and lease grants for it with ErrRebalancing.
func (n *Node) fenceMigration(ref core.Ref) {
	n.migrateMu.Lock()
	if n.migrating == nil {
		n.migrating = make(map[core.Ref]time.Time)
	}
	n.migrating[ref] = time.Now().Add(migrationFenceTTL)
	n.migrateMu.Unlock()
}

// liftMigrationFence removes ref's fence.
func (n *Node) liftMigrationFence(ref core.Ref) {
	n.migrateMu.Lock()
	delete(n.migrating, ref)
	n.migrateMu.Unlock()
}

// migrationFenced reports whether ref is currently fenced here. Expired
// fences (a migration that died mid-flight) lift lazily on first check,
// so a wedged coordinator degrades to a bounded stall, not a black hole.
func (n *Node) migrationFenced(ref core.Ref) bool {
	n.migrateMu.Lock()
	defer n.migrateMu.Unlock()
	deadline, ok := n.migrating[ref]
	if !ok {
		return false
	}
	if time.Now().After(deadline) {
		delete(n.migrating, ref)
		return false
	}
	return true
}

// liftMigrationFences drops fences for refs this node no longer primaries
// under v: the flip the fence was guarding has landed (or membership moved
// the key anyway) and the new primary serves from here on. Called from
// onView; fences for refs this node still primaries stay (their migration
// is still in flight) and are lifted by MigrateObject itself.
func (n *Node) liftMigrationFences(v membership.View) {
	n.migrateMu.Lock()
	defer n.migrateMu.Unlock()
	var place *membership.Placement // built only when a fence is up
	for ref := range n.migrating {
		if place == nil {
			place = v.Placement()
		}
		set := place.PlaceRef(ref, n.cfg.RF)
		if len(set) == 0 || set[0] != n.cfg.ID {
			delete(n.migrating, ref)
		}
	}
}

// fencedRefs lists the refs currently fenced here (for status reporting).
func (n *Node) fencedRefs() []string {
	n.migrateMu.Lock()
	defer n.migrateMu.Unlock()
	now := time.Now()
	out := make([]string, 0, len(n.migrating))
	for ref, deadline := range n.migrating {
		if now.Before(deadline) {
			out = append(out, ref.String())
		}
	}
	sort.Strings(out)
	return out
}

// MigrateObject live-migrates ref to targets (or, with unpin, back to its
// hash placement) using the fence → revoke → quiesce → push → flip
// protocol above. It must run on ref's current primary (ErrWrongNode
// otherwise, so callers re-route exactly like an invocation) and returns
// only after the directive flip's view has been installed everywhere the
// directory reaches.
func (n *Node) MigrateObject(ctx context.Context, ref core.Ref, targets []ring.NodeID, unpin bool) error {
	v, r := n.currentView()
	if r == nil {
		return core.ErrStopped
	}
	key := ref.String()
	if !unpin {
		if len(targets) == 0 {
			return fmt.Errorf("server: migrate %s: no targets", ref)
		}
		for _, t := range targets {
			if !v.Contains(t) {
				return fmt.Errorf("server: migrate %s: target %s not in view %d", ref, t, v.ID)
			}
		}
	}

	// Only the current primary may migrate: it is the node whose copy is
	// authoritative and whose fence actually stops the write path.
	e, resident := n.lookupExisting(ref)
	rf := 1
	if !resident || e.persist {
		rf = n.cfg.RF
	}
	group := v.Directives.PlaceRef(r, ref.Type, ref.Key, rf)
	if len(group) == 0 || group[0] != n.cfg.ID {
		owner := ring.NodeID("?")
		if len(group) > 0 {
			owner = group[0]
		}
		return fmt.Errorf("%w: %s belongs to %s", core.ErrWrongNode, ref, owner)
	}
	if resident && e.sync {
		return fmt.Errorf("server: migrate %s: synchronization objects are connection-bound", ref)
	}
	if n.isStale(ref) {
		// A copy suspected behind the committed history must not be blessed
		// as the lineage's new authority; heal first, migrate later.
		return fmt.Errorf("%w: %s stale on %s", core.ErrRebalancing, ref, n.cfg.ID)
	}

	// The placement the cluster will have after the flip, computed against
	// the same members: the push below must land on these nodes.
	nd := v.Directives.Clone()
	if unpin {
		nd = nd.Without(key)
	} else {
		nd = nd.With(key, targets)
	}
	newSet := nd.Place(r, key, rf)

	// Fence: from here until the flip view installs, this node bounces new
	// invocations and refuses lease grants for ref.
	n.fenceMigration(ref)
	defer n.liftMigrationFence(ref)
	fail := func(err error) error {
		n.migrationsFailed.Add(1)
		n.cMigrationsFailed.Inc()
		return err
	}

	// Revoke: every outstanding lease dies before the copy moves, exactly
	// as before a write — a cache serving reads across the flip would miss
	// the new primary's first mutation.
	endWrite, err := n.prepareWrite(ctx, ref)
	if err != nil {
		return fail(fmt.Errorf("server: migrate %s: revoke: %w", ref, err))
	}
	defer endWrite()

	// Quiesce + push: ship the snapshot to every member of the new set.
	// pushObject waits out in-flight SMR rounds before snapshotting and
	// re-ships while operations race the transfer. The new primary's copy
	// is load-bearing (pullObject polls the new group, so a resident copy
	// there prevents a lineage fork); the other members are best-effort —
	// the flip's own rebalance pass and self-healing repair them.
	if resident {
		for _, target := range newSet {
			if target == n.cfg.ID {
				continue
			}
			if err := n.pushObject(ref, e, target, false); err != nil {
				if target == newSet[0] {
					return fail(fmt.Errorf("server: migrate %s: push to new primary: %w", ref, err))
				}
				n.log.Debug("migration push to follower failed", "ref", key,
					"target", string(target), "err", err)
			}
		}
	}

	// Flip: install the directive through the directory's ordinary view
	// path. Listeners (including this node's own onView) run before this
	// returns, so the old placement is gone when the caller hears success.
	var nv membership.View
	if unpin {
		nv = n.cfg.Directory.ClearDirective(key)
	} else {
		nv = n.cfg.Directory.SetDirective(key, targets)
	}
	n.migrations.Add(1)
	n.cMigrations.Inc()
	n.log.Info("object migrated", "ref", key, "unpin", unpin,
		"targets", fmt.Sprint(targets), "view", nv.ID,
		"directives", nv.Directives.Version)

	// Propagate: processes with private directories (dso-server) only
	// learn the flip from this broadcast; without it every other member
	// keeps routing — and fencing replication rounds — by the old
	// placement, and the pinned key is unreachable cluster-wide. Best
	// effort: a member that misses it converges from the rebalance
	// coordinator's per-scan re-broadcast (or a peer's KindView answer,
	// for clients). Shared-directory members no-op on their own table.
	n.broadcastDirectives(nv)
	return nil
}

// broadcastDirectives pushes v's directive table to every other member
// of v, best effort.
func (n *Node) broadcastDirectives(v membership.View) {
	body, err := core.EncodeValue(v.Directives)
	if err != nil {
		return
	}
	for _, m := range v.Members {
		if m == n.cfg.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.waitTimeout())
		_, err := n.peerCall(ctx, m, KindDirectivesSync, body)
		cancel()
		if err != nil {
			n.log.Debug("directive sync failed", "member", string(m), "err", err)
		}
	}
}

// handleDirectivesSync adopts a strictly newer remote directive table
// into this node's directory (KindDirectivesSync).
func (n *Node) handleDirectivesSync(payload []byte) ([]byte, error) {
	var remote ring.Directives
	if err := core.DecodeValue(payload, &remote); err != nil {
		return nil, err
	}
	if v, adopted := n.cfg.Directory.SyncDirectives(remote); adopted {
		n.log.Info("adopted directive table", "version", remote.Version,
			"entries", remote.Len(), "view", v.ID)
	}
	return []byte("ok"), nil
}

// handleMigrate services a KindMigrate command (rebalancer or dso-cli).
func (n *Node) handleMigrate(ctx context.Context, payload []byte) ([]byte, error) {
	var cmd MigrateCmd
	if err := core.DecodeValue(payload, &cmd); err != nil {
		return nil, err
	}
	if err := n.MigrateObject(ctx, cmd.Ref, cmd.Targets, cmd.Unpin); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// RebalanceStatusNow captures this node's resharding-plane status, the
// payload of KindRebalanceStatus.
func (n *Node) RebalanceStatusNow() RebalanceStatus {
	v, _ := n.currentView()
	dirs := make(map[string][]string, v.Directives.Len())
	for _, key := range v.Directives.Keys() {
		ts, _ := v.Directives.Lookup(key)
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = string(t)
		}
		dirs[key] = out
	}
	st := RebalanceStatus{
		Node:             string(n.cfg.ID),
		Enabled:          n.rebal != nil,
		ViewID:           v.ID,
		DirectiveVersion: v.Directives.Version,
		Directives:       dirs,
		Fenced:           n.fencedRefs(),
		Migrations:       n.migrations.Load(),
		MigrationsFailed: n.migrationsFailed.Load(),
		Scans:            n.rebalScans.Load(),
	}
	if n.rebal != nil {
		st.Coordinator = n.rebal.coordinating(v)
		st.Streaks = n.rebal.streakSnapshot()
	}
	return st
}

// handleRebalanceStatus services a KindRebalanceStatus query.
func (n *Node) handleRebalanceStatus() ([]byte, error) {
	return core.EncodeValue(n.RebalanceStatusNow())
}
