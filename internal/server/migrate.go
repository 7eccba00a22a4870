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

// Live hot-object migration (DESIGN.md §5g) moves one object to an
// explicit placement while the cluster keeps serving:
//
//	fence → revoke → quiesce → push → flip
//
// The source primary fences the record (calls and grants bounce), revokes
// every lease (prepareWrite), waits out admitted rounds, pushes its
// snapshot to the next replica set, and only then flips the placement
// directive. The flip installs a view, so it rides every view-change
// hook. No dual primary: until the flip only the fenced source can
// coordinate, and after it the old view's rounds are refused. No lost
// update: the push follows the quiesce, and the flip follows a successful
// push to the new primary. No stale read: leases die before the copy
// moves, and the flip arms the one-TTL write fence on every node.

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

// liftMigrationFences drops fences for refs this node no longer primaries
// under v: the flip the fence was guarding has landed (or membership moved
// the key anyway) and the new primary serves from here on. Called from
// onView; fences for refs this node still primaries stay (their migration
// is still in flight) and are lifted by MigrateObject itself.
func (n *Node) liftMigrationFences(v membership.View) {
	var place *membership.Placement // built only when a fence is up
	for _, e := range n.recordsWhere((*entry).fencedLocked) {
		if place == nil {
			place = v.Placement()
		}
		if set := place.PlaceRef(e.ref, n.cfg.RF); len(set) == 0 || set[0] != n.cfg.ID {
			e.setFence(time.Time{})
			n.dropIfIdle(e)
		}
	}
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
	e := n.pin(ref, true)
	defer n.release(e)
	resident, persist, syncObj := e.kind()
	rf := 1
	if !resident || persist {
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
	if syncObj {
		return fmt.Errorf("server: migrate %s: synchronization objects are connection-bound", ref)
	}
	// The shipped copy becomes the lineage's authority: make it the
	// group's highest first.
	if _, err := n.open(ctx, e, group, v.ID); err != nil {
		return err
	}
	resident, _, _ = e.kind()
	// The placement the cluster will have after the flip, computed against
	// the same members: the push below must land on these nodes.
	nd := v.Directives.Clone()
	if unpin {
		nd = nd.Without(key)
	} else {
		nd = nd.With(key, targets)
	}
	newSet := nd.Place(r, key, rf)

	// Fence: until the flip's view installs, calls and grants bounce.
	e.setFence(time.Now().Add(migrationFenceTTL))
	defer e.setFence(time.Time{})
	fail := func(err error) error {
		n.migrationsFailed.Add(1)
		n.cMigrationsFailed.Inc()
		return err
	}

	// Revoke: a cache serving reads across the flip would miss the new
	// primary's first mutation.
	if n.leases != nil {
		if err := n.leases.prepareWrite(ctx, e); err != nil {
			return fail(fmt.Errorf("server: migrate %s: revoke: %w", ref, err))
		}
		defer e.endWrite()
	}

	// Quiesce + push (pushObject waits out admitted rounds) to the new set.
	// The new primary's copy is load-bearing: its pulls find it, so no
	// lineage forks. The others are best-effort; the flip's rebalance and
	// self-healing repair them.
	if resident {
		for _, target := range newSet {
			if target == n.cfg.ID {
				continue
			}
			if err := n.pushObject(e, target); err != nil {
				if target == newSet[0] {
					return fail(fmt.Errorf("server: migrate %s: push to new primary: %w", ref, err))
				}
				n.log.Debug("migration push to follower failed", "ref", key,
					"target", string(target), "err", err)
			}
		}
	}

	// Flip, through the directory's ordinary view path: listeners, this
	// node's onView included, run before it returns.
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

	// Propagate: processes with private directories (dso-server) learn
	// the flip only from this broadcast, or else keep routing and fencing
	// rounds by the old placement. Best effort: a member that misses it
	// converges from the rebalance coordinator's per-scan re-broadcast.
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
		err := n.peerCall(ctx, m, KindDirectivesSync, body, nil)
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
	var fenced []string
	for _, e := range n.recordsWhere((*entry).fencedLocked) {
		fenced = append(fenced, e.ref.String())
	}
	sort.Strings(fenced)
	st := RebalanceStatus{
		Node:             string(n.cfg.ID),
		Enabled:          n.rebal != nil,
		ViewID:           v.ID,
		DirectiveVersion: v.Directives.Version,
		Directives:       dirs,
		Fenced:           fenced,
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
