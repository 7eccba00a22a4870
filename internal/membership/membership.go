// Package membership provides the view service of the DSO layer: a
// totally-ordered sequence of views (paper Section 4.1, "a variation of
// view synchrony"). Nodes join, heartbeat, and leave; the directory
// installs a new view on every membership change and notifies subscribers
// in order, so all nodes agree on the view sequence and rebalance
// deterministically.
//
// The directory plays the role JGroups' coordinator plays for Infinispan.
// It runs in the control plane of the cluster: in-process for tests and
// benchmarks, or hosted by a seed node for the TCP deployment. Experiments
// drive membership changes through Crash and Join (Fig. 8).
package membership

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/ring"
)

// View is one membership epoch. Views are immutable; Members is sorted.
// Directives carries the per-key placement overrides in force for this
// epoch (ring.Directives): the rebalancer installs a new view (same
// members, bumped directive version) to move a hot object, and every node
// and client routes from the same table.
type View struct {
	ID         uint64
	Members    []ring.NodeID
	Addrs      map[ring.NodeID]string
	Directives ring.Directives
}

// Contains reports whether node is a member of the view.
func (v View) Contains(node ring.NodeID) bool {
	for _, m := range v.Members {
		if m == node {
			return true
		}
	}
	return false
}

// Ring builds the consistent-hashing ring of this view.
func (v View) Ring() *ring.Ring {
	return ring.New(v.Members, 0)
}

// Place computes the replica set for key in this view: directive table
// first, ring otherwise (ring.Directives.Place). It builds the ring on
// every call, so it is for cold paths only; per-operation callers take
// Directory.Placement or keep a Ring and call Directives.Place on it.
func (v View) Place(key string, rf int) []ring.NodeID {
	return v.Directives.Place(v.Ring(), key, rf)
}

// Placement is the placement function of one installed view: its directive
// table and its ring, built once at install. It is immutable, so any number
// of goroutines may route from one without locks or copies.
type Placement struct {
	// ViewID is the ID of the view this placement routes for.
	ViewID     uint64
	directives ring.Directives
	ring       *ring.Ring
}

// Place computes the replica set for key, primary first; equal to
// View.Place on the view it was published for.
func (p *Placement) Place(key string, rf int) []ring.NodeID {
	return p.directives.Place(p.ring, key, rf)
}

// Fence is a digest of the view's placement function (FNV-1a over the
// sorted member list and the directive table). Two views with equal
// fences resolve every object to the same replica group and the same
// primary, so replication messages fenced on it can only commit among
// nodes that agree on who coordinates — ruling out a stale primary and a
// new one serving the same object concurrently during a view transition.
// Directives are part of the digest because a directive flip changes
// placement exactly like a membership change does: a proposal fenced on
// the pre-flip table must not commit once the flip lands. Unlike the ID,
// the fence is comparable across independently-numbered directories (each
// process of a TCP deployment runs its own).
func (v View) Fence() uint64 {
	// Inline FNV-1a, 64 bit.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	for _, m := range v.Members {
		mix(string(m))
	}
	if v.Directives.Len() > 0 {
		for i := 0; i < 8; i++ {
			h ^= (v.Directives.Version >> (8 * i)) & 0xff
			h *= prime64
		}
		for _, k := range v.Directives.Keys() {
			mix(k)
			targets, _ := v.Directives.Lookup(k)
			for _, t := range targets {
				mix(string(t))
			}
			h ^= 0xfe // entry separator
			h *= prime64
		}
	}
	return h
}

// clone returns a deep copy so callers can never alias directory state.
func (v View) clone() View {
	out := View{
		ID:         v.ID,
		Members:    make([]ring.NodeID, len(v.Members)),
		Addrs:      make(map[ring.NodeID]string, len(v.Addrs)),
		Directives: v.Directives.Clone(),
	}
	copy(out.Members, v.Members)
	for k, a := range v.Addrs {
		out.Addrs[k] = a
	}
	return out
}

// Listener observes installed views. Listeners are invoked sequentially,
// in view order, on the goroutine that triggered the change; they must not
// call back into the directory.
type Listener func(View)

// ErrUnknownNode is returned when operating on a node that is not a
// member.
var ErrUnknownNode = errors.New("membership: unknown node")

// Directory is the membership service. Safe for concurrent use.
type Directory struct {
	mu   sync.Mutex
	view View
	// placement is the latest view's placement function, stored in the same
	// d.mu section that sets view — so before any listener hears of the
	// view — and read without the lock (Placement).
	placement  atomic.Pointer[Placement]
	heartbeats map[ring.NodeID]time.Time
	listeners  map[int]Listener
	nextSub    int
	timeout    time.Duration
	// now is the heartbeat clock (time.Now; the in-package tests drive the
	// failure detector with one they advance themselves).
	now func() time.Time
	// installMu serializes view installation + listener notification so
	// listeners observe views strictly in order.
	installMu sync.Mutex
}

// NewDirectory builds a directory. timeout is the heartbeat staleness
// threshold used by CheckFailures (and the background detector, if
// started).
func NewDirectory(timeout time.Duration) *Directory {
	d := &Directory{
		view:       View{ID: 0, Addrs: map[ring.NodeID]string{}},
		heartbeats: make(map[ring.NodeID]time.Time),
		listeners:  make(map[int]Listener),
		timeout:    timeout,
		now:        time.Now,
	}
	d.placement.Store(&Placement{ring: ring.New(nil, 0)})
	return d
}

// View returns a deep copy of the current view. Per-operation callers that
// only need to place a key use Placement, which copies nothing.
func (d *Directory) View() View {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.view.clone()
}

// Placement returns the placement function of the directory's latest view:
// one atomic load, no copy, no ring construction. By the time a listener
// is told of a view, Placement already answers for it, so a check made
// against Placement is never older than any node's installed view.
func (d *Directory) Placement() *Placement {
	return d.placement.Load()
}

// installLocked makes next the current view and publishes its placement
// over r, returning the listeners to notify and the copy to hand them.
// Caller holds d.installMu and d.mu.
func (d *Directory) installLocked(next View, r *ring.Ring) ([]Listener, View) {
	d.view = next
	// The table is shared with d.view, not copied: neither is ever mutated
	// in place, and callers only ever see clones of the view.
	d.placement.Store(&Placement{ViewID: next.ID, directives: next.Directives, ring: r})
	ls := make([]Listener, 0, len(d.listeners))
	for _, l := range d.listeners {
		ls = append(ls, l)
	}
	return ls, next.clone()
}

// Subscribe registers a listener for future views and returns a cancel
// function. The listener is immediately called with the current view so
// subscribers need no separate bootstrap.
func (d *Directory) Subscribe(l Listener) (cancel func()) {
	d.installMu.Lock()
	d.mu.Lock()
	id := d.nextSub
	d.nextSub++
	d.listeners[id] = l
	current := d.view.clone()
	d.mu.Unlock()
	l(current)
	d.installMu.Unlock()
	return func() {
		d.mu.Lock()
		delete(d.listeners, id)
		d.mu.Unlock()
	}
}

// Join adds a node and installs the next view. Joining twice updates the
// address (a restarted node).
func (d *Directory) Join(node ring.NodeID, addr string) View {
	return d.change(func(members map[ring.NodeID]string) {
		members[node] = addr
	})
}

// Leave removes a node gracefully and installs the next view.
func (d *Directory) Leave(node ring.NodeID) View {
	return d.change(func(members map[ring.NodeID]string) {
		delete(members, node)
	})
}

// Crash removes a node abruptly (experiment hook; equivalent to the
// failure detector firing). The view change is identical to Leave — the
// difference is at the node, which gets no chance to hand off state.
// Crashing a node that is not a member is a no-op: no view is installed
// and the current view is returned (a failure detector and an explicit
// experiment step may race to remove the same node).
func (d *Directory) Crash(node ring.NodeID) View {
	return d.Leave(node)
}

// change applies a mutation to the member set and installs the next view.
// A mutation that leaves the member set unchanged (leave of a non-member,
// re-join with the same address) installs nothing: subscribers only ever
// see views that differ from their predecessor, so a redundant call can
// not trigger a spurious rebalance.
func (d *Directory) change(mutate func(map[ring.NodeID]string)) View {
	d.installMu.Lock()
	defer d.installMu.Unlock()

	d.mu.Lock()
	members := make(map[ring.NodeID]string, len(d.view.Addrs))
	for n, a := range d.view.Addrs {
		members[n] = a
	}
	mutate(members)
	if unchangedLocked(d.view.Addrs, members) {
		cur := d.view.clone()
		d.mu.Unlock()
		return cur
	}

	next := View{ID: d.view.ID + 1, Addrs: members, Directives: d.view.Directives.Clone()}
	next.Members = make([]ring.NodeID, 0, len(members))
	for n := range members {
		next.Members = append(next.Members, n)
	}
	sort.Slice(next.Members, func(i, j int) bool { return next.Members[i] < next.Members[j] })
	// The ring is the costly part of an install (hundreds of hashed and
	// sorted vnodes); build it with d.mu released so heartbeats and View
	// readers are not held up. installMu keeps the view from moving.
	d.mu.Unlock()
	r := next.Ring()
	d.mu.Lock()
	for _, n := range next.Members {
		if _, ok := d.heartbeats[n]; !ok {
			d.heartbeats[n] = d.now()
		}
	}
	for n := range d.heartbeats {
		if _, ok := members[n]; !ok {
			delete(d.heartbeats, n)
		}
	}
	ls, installed := d.installLocked(next, r)
	d.mu.Unlock()

	for _, l := range ls {
		l(installed)
	}
	return installed
}

// SetDirective installs the next view with key directed to targets (same
// members, directive version bumped). An empty target list removes the
// override. Placement flips go through the ordinary view-installation
// path on purpose: subscribers see one totally-ordered sequence of
// placement changes, membership or directive alike, and the new view's
// fence cuts off in-flight replication rounds routed by the old table.
func (d *Directory) SetDirective(key string, targets []ring.NodeID) View {
	return d.UpdateDirectives(func(cur ring.Directives) ring.Directives {
		return cur.With(key, targets)
	})
}

// ClearDirective installs the next view with key's override removed, so
// the key falls back to hash placement. Clearing a key that has no
// override installs nothing.
func (d *Directory) ClearDirective(key string) View {
	return d.UpdateDirectives(func(cur ring.Directives) ring.Directives {
		if _, ok := cur.Lookup(key); !ok {
			return cur
		}
		return cur.Without(key)
	})
}

// UpdateDirectives applies mutate to the current directive table and, if
// the returned table's version differs, installs the next view carrying
// it. Updates are serialized under the installation lock, so concurrent
// callers each observe the latest table and versions are strictly
// monotonic. mutate must return either its argument unchanged (no
// install) or a derived table with a larger version; it must not call
// back into the directory.
func (d *Directory) UpdateDirectives(mutate func(ring.Directives) ring.Directives) View {
	d.installMu.Lock()
	defer d.installMu.Unlock()

	d.mu.Lock()
	next := mutate(d.view.Directives.Clone())
	if next.Version == d.view.Directives.Version {
		cur := d.view.clone()
		d.mu.Unlock()
		return cur
	}
	nv := d.view.clone()
	nv.ID = d.view.ID + 1
	nv.Directives = next
	// Same members, same ring: a directive flip reuses the published one.
	ls, installed := d.installLocked(nv, d.placement.Load().ring)
	d.mu.Unlock()

	for _, l := range ls {
		l(installed)
	}
	return installed
}

// SyncDirectives adopts a remote directive table if it is strictly newer
// than the local one, installing the next view carrying it (same member
// set). It is the propagation half of placement flips for deployments
// where every process owns a private Directory: the primary that
// executes a migration flips its own directory, then broadcasts the new
// table to its peers, and the rebalance coordinator re-broadcasts every
// scan as anti-entropy — a node that missed the flip converges within
// one scan interval. Version-ordered adoption is last-writer-wins: the
// single rebalance coordinator serializes migrations, so competing
// tables with the same version only arise from concurrent hand-driven
// `dso-cli migrate` calls against partitioned primaries. The bool
// reports whether the table was adopted.
func (d *Directory) SyncDirectives(remote ring.Directives) (View, bool) {
	adopted := false
	v := d.UpdateDirectives(func(cur ring.Directives) ring.Directives {
		if remote.Version <= cur.Version {
			return cur
		}
		adopted = true
		return remote.Clone()
	})
	return v, adopted
}

// unchangedLocked reports whether the mutated member set equals the
// current view's.
func unchangedLocked(cur, next map[ring.NodeID]string) bool {
	if len(cur) != len(next) {
		return false
	}
	for n, a := range next {
		if prev, ok := cur[n]; !ok || prev != a {
			return false
		}
	}
	return true
}

// Heartbeat records liveness for node.
func (d *Directory) Heartbeat(node ring.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.view.Addrs[node]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, node)
	}
	d.heartbeats[node] = d.now()
	return nil
}

// CheckFailures removes every node whose heartbeat is older than the
// timeout, installing one view per removal. It returns the removed nodes.
// Safe against concurrent Join/Leave/Heartbeat: staleness is re-validated
// under the directory lock at removal time, so a node that heartbeats (or
// leaves and rejoins) between the scan and the removal is spared instead
// of being evicted on stale evidence.
func (d *Directory) CheckFailures() []ring.NodeID {
	d.mu.Lock()
	var stale []ring.NodeID
	now := d.now()
	for n, last := range d.heartbeats {
		if now.Sub(last) > d.timeout {
			stale = append(stale, n)
		}
	}
	d.mu.Unlock()
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })

	var removed []ring.NodeID
	for _, n := range stale {
		evicted := false
		d.change(func(members map[ring.NodeID]string) {
			// d.mu is held here (see change): re-read the heartbeat and
			// only remove a node that is both present and still stale.
			last, tracked := d.heartbeats[n]
			if !tracked || d.now().Sub(last) <= d.timeout {
				return
			}
			if _, ok := members[n]; !ok {
				return
			}
			delete(members, n)
			evicted = true
		})
		if evicted {
			removed = append(removed, n)
		}
	}
	return removed
}

// RunFailureDetector polls CheckFailures every interval until the context
// is cancelled. Call it in a goroutine when heartbeat-based detection is
// wanted (the TCP deployment); tests drive CheckFailures directly.
func (d *Directory) RunFailureDetector(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			d.CheckFailures()
		}
	}
}
