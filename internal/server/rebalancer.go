package server

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
)

// The rebalancer (DESIGN.md §5g) closes the loop from the per-object load
// observability of §5f to placement: it periodically merges every member's
// heavy-hitter snapshot, detects objects whose windowed rate is both high
// in absolute terms and skewed relative to the rest of the population, and
// live-migrates them (MigrateObject) onto the least-loaded nodes. When a
// pinned object cools off it is un-pinned back to hash placement, so the
// directive table tracks the hot set rather than growing monotonically.
//
// Every node runs the loop, but only the coordinator — the first member of
// the installed view, the same total order every other tie-break in the
// package uses — acts on a given tick. Coordinator failover is therefore
// free: the next view promotes the next member, whose own loop starts
// acting (with fresh streak state; it re-observes hotness for Sustain
// scans before moving anything, which only delays, never endangers).
type rebalancer struct {
	n      *Node
	policy core.RebalancePolicy

	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	// streaks counts consecutive scans each object exceeded both hot
	// gates; coolStreaks counts consecutive scans a pinned object stayed
	// below half the hot rate; cooldown quarantines refs after any
	// migration attempt so placement cannot flap within one measurement
	// settling period.
	streaks     map[core.Ref]int
	coolStreaks map[string]int
	cooldown    map[string]time.Time
}

func newRebalancer(n *Node, p core.RebalancePolicy) *rebalancer {
	return &rebalancer{
		n:           n,
		policy:      p.Normalized(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		streaks:     make(map[core.Ref]int),
		coolStreaks: make(map[string]int),
		cooldown:    make(map[string]time.Time),
	}
}

func (rb *rebalancer) start() { go rb.loop() }

func (rb *rebalancer) stopWait() {
	close(rb.stop)
	<-rb.done
}

func (rb *rebalancer) loop() {
	defer close(rb.done)
	t := time.NewTicker(rb.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-rb.stop:
			return
		case <-t.C:
			if rb.n.closed.Load() {
				return
			}
			rb.scan()
		}
	}
}

// coordinating reports whether this node acts on scans under v.
func (rb *rebalancer) coordinating(v membership.View) bool {
	return len(v.Members) > 0 && v.Members[0] == rb.n.cfg.ID
}

// streakSnapshot copies the hot-streak table for status reporting.
func (rb *rebalancer) streakSnapshot() map[string]int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	out := make(map[string]int, len(rb.streaks))
	for ref, s := range rb.streaks {
		out[ref.String()] = s
	}
	return out
}

// scan is one rebalancer pass: merge the cluster's per-object windowed
// rates, update hot/cool streaks, and migrate what has earned it.
func (rb *rebalancer) scan() {
	n := rb.n
	v, _ := n.currentView()
	if !rb.coordinating(v) {
		// Not our turn: drop accumulated streaks so a later promotion
		// starts from fresh observations, not from another era's.
		rb.mu.Lock()
		rb.streaks = make(map[core.Ref]int)
		rb.coolStreaks = make(map[string]int)
		rb.mu.Unlock()
		return
	}
	if n.objTrack == nil {
		// No telemetry, no load signal (see core.RebalancePolicy).
		return
	}
	n.rebalScans.Add(1)
	n.cRebalScans.Inc()

	// Gather: this node's snapshot plus one KindObjectStats round trip per
	// peer. An unreachable peer contributes nothing this scan — its load
	// reappears next scan, and Sustain absorbs the flicker.
	merged := n.ObjectStats()
	for _, m := range v.Members {
		if m == n.cfg.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), rb.policy.Interval)
		var snap telemetry.ObjectsSnapshot
		err := n.peerCall(ctx, m, KindObjectStats, nil, func(out []byte) error { return core.DecodeValue(out, &snap) })
		cancel()
		if err != nil {
			continue
		}
		merged = merged.Merge(snap)
	}

	// Rates: per object (for hotness) and per node (for target choice).
	rates := make(map[core.Ref]float64, len(merged.Stats))
	var sum float64
	for _, st := range merged.Stats {
		r := merged.RateOf(st)
		if r <= 0 {
			continue
		}
		rates[core.Ref{Type: st.Type, Key: st.Key}] = r
		sum += r
	}
	mean := 0.0
	if len(rates) > 0 {
		mean = sum / float64(len(rates))
	}
	// Forward-looking load model: each object's merged windowed rate is
	// attributed to the node that will serve its NEXT operation — its
	// current primary under v — not to whichever members measured the
	// traffic. Right after a directive flip, measurements lag placement
	// by up to a full rate window; attributing by measurement would keep
	// steering pins at the node the flip just relieved (and away from
	// the one it just burdened), dog-piling consecutive scans' choices
	// onto the same target. One placement function serves the whole
	// scan: View.Place would build a ring per ref.
	place := v.Placement()
	nodeLoad := make(map[ring.NodeID]float64, len(v.Members))
	for ref, r := range rates {
		if set := place.PlaceRef(ref, n.cfg.RF); len(set) > 0 {
			nodeLoad[set[0]] += r
		}
	}

	p := rb.policy
	now := time.Now()
	rb.mu.Lock()
	// Hot streaks: both gates must hold this scan or the streak resets.
	for ref := range rb.streaks {
		if r, ok := rates[ref]; !ok || r < p.HotRate || r < p.HotFactor*mean {
			delete(rb.streaks, ref)
		}
	}
	// Pinned keys stay candidates: a directive records where a key was
	// sent, not where it must remain. When several hot keys land on the
	// same target across scans (each scan chooses against rates that lag
	// the previous scan's flips), the only path back to balance is
	// re-migrating one of them — a one-shot pin would freeze the first
	// skewed assignment forever. The load gate below (strictly lighter
	// beside the key, by more than the key's own rate) plus the per-key
	// cooldown keep re-pins from flapping.
	var toPin []core.Ref
	newPins := 0
	for ref, r := range rates {
		if r < p.HotRate || r < p.HotFactor*mean {
			continue
		}
		rb.streaks[ref]++
		key := ref.String()
		if rb.streaks[ref] < p.Sustain || now.Before(rb.cooldown[key]) {
			continue
		}
		_, pinned := v.Directives.Lookup(key)
		if !pinned && v.Directives.Len()+newPins >= p.MaxDirectives {
			n.log.Debug("rebalancer at directive cap", "ref", key,
				"cap", p.MaxDirectives)
			continue
		}
		if !pinned {
			newPins++
		}
		toPin = append(toPin, ref)
	}
	// Cool streaks: a pinned object quiet for Sustain scans goes home.
	var toUnpin []core.Ref
	for _, key := range v.Directives.Keys() {
		ref, ok := parseRefKey(key)
		if !ok {
			continue
		}
		if rates[ref] >= p.HotRate/2 {
			delete(rb.coolStreaks, key)
			continue
		}
		rb.coolStreaks[key]++
		if rb.coolStreaks[key] < p.Sustain || now.Before(rb.cooldown[key]) {
			continue
		}
		toUnpin = append(toUnpin, ref)
	}
	rb.mu.Unlock()

	// Assign hot keys one at a time against a load model updated as keys
	// are (notionally) moved: when several heavy hitters burn the same
	// primary, they spread across the other members instead of dog-piling
	// onto whichever node was least loaded at scan time. The gate compares
	// the load each node carries BESIDE the migrating key (the key brings
	// its own rate wherever it goes, so only the surrounding traffic
	// decides whether a move reduces the bottleneck): once spreading has
	// evened things out, the remaining hot keys stay on their unburdened
	// origin instead of ping-ponging.
	for _, ref := range toPin {
		cur := place.PlaceRef(ref, n.cfg.RF)
		if len(cur) == 0 {
			continue
		}
		targets := rb.pickTargets(v, nodeLoad, cur[0])
		if len(targets) == 0 {
			continue
		}
		r := rates[ref]
		if nodeLoad[targets[0]] >= nodeLoad[cur[0]]-r {
			continue
		}
		rb.migrate(place, ref, targets, false)
		nodeLoad[cur[0]] -= r
		nodeLoad[targets[0]] += r
	}
	for _, ref := range toUnpin {
		rb.migrate(place, ref, nil, true)
	}

	// Anti-entropy for private-directory deployments: re-broadcast the
	// latest directive table every scan, so a member that missed a flip's
	// own broadcast (down, partitioned, restarted) converges within one
	// scan interval. Members sharing this node's directory, and members
	// already at this version, adopt nothing.
	if cur, _ := n.currentView(); cur.Directives.Version > 0 {
		n.broadcastDirectives(cur)
	}
}

// pickTargets spreads a hot ref onto the least-loaded members, excluding
// its current primary (the node the hot spot is burning). Ties break by
// node ID so concurrent coordinators — impossible by construction, but
// cheap to be deterministic about — would choose identically.
func (rb *rebalancer) pickTargets(v membership.View, nodeLoad map[ring.NodeID]float64, curPrimary ring.NodeID) []ring.NodeID {
	n := rb.n
	cands := make([]ring.NodeID, 0, len(v.Members))
	for _, m := range v.Members {
		if m == curPrimary {
			continue
		}
		cands = append(cands, m)
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		li, lj := nodeLoad[cands[i]], nodeLoad[cands[j]]
		if li != lj {
			return li < lj
		}
		return cands[i] < cands[j]
	})
	rf := n.cfg.RF
	if rf > len(cands) {
		rf = len(cands)
	}
	return cands[:rf]
}

// migrate executes one migration: locally when this node is the ref's
// primary, by KindMigrate to the primary otherwise. Success or failure,
// the ref enters cooldown — a failed migration re-attempted every scan
// would hammer a struggling primary.
func (rb *rebalancer) migrate(place *membership.Placement, ref core.Ref, targets []ring.NodeID, unpin bool) {
	n := rb.n
	key := ref.String()
	group := place.PlaceRef(ref, n.cfg.RF)
	if len(group) == 0 {
		return
	}
	rb.mu.Lock()
	rb.cooldown[key] = time.Now().Add(rb.policy.Cooldown)
	delete(rb.streaks, ref)
	delete(rb.coolStreaks, key)
	rb.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), migrationFenceTTL)
	defer cancel()
	var err error
	if group[0] == n.cfg.ID {
		err = n.MigrateObject(ctx, ref, targets, unpin)
	} else {
		var body []byte
		body, err = core.EncodeValue(MigrateCmd{Ref: ref, Targets: targets, Unpin: unpin})
		if err == nil {
			err = n.peerCall(ctx, group[0], KindMigrate, body, nil)
		}
	}
	if err != nil {
		n.log.Info("rebalancer migration failed", "ref", key, "unpin", unpin,
			"primary", string(group[0]), "err", err)
		return
	}
	n.log.Info("rebalancer migrated object", "ref", key, "unpin", unpin,
		"targets", len(targets))
}

// parseRefKey inverts core.Ref.String ("Type[Key]") for directive-table
// entries. Directive keys are always written via Ref.String, so a
// non-conforming key only ever means an operator typed one by hand.
func parseRefKey(key string) (core.Ref, bool) {
	i := strings.IndexByte(key, '[')
	if i <= 0 || !strings.HasSuffix(key, "]") {
		return core.Ref{}, false
	}
	return core.Ref{Type: key[:i], Key: key[i+1 : len(key)-1]}, true
}
