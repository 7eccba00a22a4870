package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/client"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
)

// ExpReshard is the elastic-resharding experiment (not part of RunAll):
// a zipfian-style hot-spot workload — most operations hit one viral
// counter, the rest a cold tail — on a cluster whose per-node capacity
// is modeled by the ServiceTime/ServiceConcurrency admission gate.
// Three placements of the same offered load: static (the viral
// counter funnels through its one hash primary), sharded (the counter
// split crucial.ShardedCounter-style across the ring, recovery limited
// by hash placement luck), and elastic (sharded plus the rebalancer,
// which live-migrates the hot shards until no member carries more than
// its share — DESIGN.md §5g). The reproduction target: elastic recovers
// ≥3x static throughput, approaching the uniform-load ceiling of
// nodes × per-node capacity. The microbenchmark twin is
// BenchmarkReshard in internal/cluster.
const ExpReshard = "reshard"

// reshardRow is one configuration's measurement.
type reshardRow struct {
	Config     string
	Nodes      int
	Shards     int
	Rebalance  bool
	Ops        uint64
	OpsPerS    float64
	Directives int
	Migrations uint64
}

// Reshard runs the hot-spot experiment and prints one row per placement
// strategy, plus the headline recovery factors.
func Reshard(w io.Writer, o Options) error {
	o = o.withDefaults()
	nodes := pick(o, 3, 5)
	shards := pick(o, 6, 10)
	// More workers than connections: workers model offered concurrency
	// (they must be able to fill every node's admission slots at once,
	// nodes × ServiceConcurrency, with headroom to queue), connections
	// just carry the frames.
	clients := pick(o, 4, 8)
	workers := pick(o, 16, 240)
	window := pick(o, 400*time.Millisecond, 2*time.Second)
	// Service time sets per-node capacity (ServiceConcurrency/svcTime).
	// It is deliberately large enough that the admission gate — not the
	// host CPU driving all five simulated nodes, nor its timer
	// granularity at high aggregate rates — is the binding constraint at
	// the uniform-load ceiling.
	svcTime := pick(o, 10*time.Millisecond, 20*time.Millisecond)

	title(w, "Reshard: zipfian hot spot, static vs sharded vs elastic placement (ops/s, wall clock)")
	row(w, "%-8s %6s %7s %10s %9s %12s %11s %11s", "CONFIG", "NODES",
		"SHARDS", "REBALANCE", "OPS", "OPS/SEC", "DIRECTIVES", "MIGRATIONS")

	type cfg struct {
		name      string
		shards    int
		rebalance bool
	}
	cfgs := []cfg{
		{"static", 1, false},
		{"sharded", shards, false},
		{"elastic", shards, true},
	}
	recovery := make(map[string]float64)
	var base float64
	for _, c := range cfgs {
		r, err := reshardRun(c.shards, c.rebalance, nodes, clients, workers, window, svcTime)
		if err != nil {
			return fmt.Errorf("reshard %s: %w", c.name, err)
		}
		r.Config = c.name
		onOff := "off"
		if c.rebalance {
			onOff = "on"
		}
		row(w, "%-8s %6d %7d %10s %9d %12.0f %11d %11d", r.Config, r.Nodes,
			r.Shards, onOff, r.Ops, r.OpsPerS, r.Directives, r.Migrations)
		if c.name == "static" {
			base = r.OpsPerS
		} else if base > 0 {
			recovery[c.name] = r.OpsPerS / base
		}
	}
	note(w, "sharded: %.1fx static, elastic: %.1fx static (full-size target >= 3x)",
		recovery["sharded"], recovery["elastic"])
	note(w, "static funnels the hot fraction through one node's admission gate;")
	note(w, "sharding spreads it as far as hash luck allows; the rebalancer migrates")
	note(w, "the hot shards until no member carries more than its share")
	return nil
}

// reshardHotFraction is the zipfian head: the share of operations aimed
// at the viral counter. The remainder spreads over the cold tail.
const reshardHotFraction = 0.85

// reshardTail is the cold-tail population size.
const reshardTail = 32

// reshardRun measures one placement strategy: `clients` workers drive
// the zipfian mix for the window against a cluster whose nodes admit at
// most ServiceConcurrency in-service operations of svcTime each. With
// rebalancing on, a warmup drive outside the measured window lets the
// coordinator converge first (detect, migrate, settle), so the window
// sees the rebalanced steady state.
func reshardRun(shards int, rebalance bool, nodes, clients, workers int, window, svcTime time.Duration) (reshardRow, error) {
	tel := telemetry.New()
	opts := cluster.Options{
		Nodes:              nodes,
		RF:                 2,
		Telemetry:          tel,
		ServiceTime:        svcTime,
		ServiceConcurrency: 4,
	}
	if rebalance {
		opts.Rebalance = core.RebalancePolicy{
			Enabled:  true,
			Interval: 100 * time.Millisecond,
			// The hot-rate floor scales with modeled capacity: per-shard
			// rates run around hotFraction/shards of the (gate-bound)
			// aggregate, far below production defaults when svcTime is
			// tens of milliseconds.
			HotRate:   float64(opts.ServiceConcurrency) / svcTime.Seconds() / float64(2*shards),
			HotFactor: 2,
			Sustain:   2,
			// Longer than two tracker rate epochs: a re-migrated key must
			// be re-measured at its new home before it may move again, or
			// stale windows drive placement ping-pong.
			Cooldown: 12 * time.Second,
		}
	}
	cl, err := cluster.StartLocal(opts)
	if err != nil {
		return reshardRow{}, err
	}
	defer func() { _ = cl.Close() }()

	var hot []core.Ref
	if shards > 1 {
		for i := 0; i < shards; i++ {
			// crucial.ShardedCounter's shard derivation: "<key>#s<i>".
			hot = append(hot, core.Ref{Type: objects.TypeAtomicLong,
				Key: fmt.Sprintf("bench/viral#s%d", i)})
		}
	} else {
		hot = []core.Ref{{Type: objects.TypeAtomicLong, Key: "bench/viral"}}
	}
	var tail []core.Ref
	for i := 0; i < reshardTail; i++ {
		tail = append(tail, core.Ref{Type: objects.TypeAtomicLong,
			Key: fmt.Sprintf("bench/tail-%d", i)})
	}

	ctx, cancel := context.WithTimeout(context.Background(), window+2*time.Minute)
	defer cancel()
	conns := make([]*client.Client, 0, clients)
	for i := 0; i < clients; i++ {
		wc, err := cl.NewClient()
		if err != nil {
			return reshardRow{}, err
		}
		defer func() { _ = wc.Close() }()
		conns = append(conns, wc)
	}
	for _, ref := range append(append([]core.Ref{}, hot...), tail...) {
		if _, err := conns[0].Call(ctx, ref, "Set", int64(0)); err != nil {
			return reshardRow{}, err
		}
	}

	oneOp := func(wc *client.Client, rng *rand.Rand) error {
		if rng.Float64() < reshardHotFraction {
			_, err := wc.Call(ctx, hot[rng.Intn(len(hot))], "AddAndGet", int64(1))
			return err
		}
		_, err := wc.Call(ctx, tail[rng.Intn(len(tail))], "Get")
		return err
	}

	var ops atomic.Uint64
	var measuring atomic.Bool
	stop := make(chan struct{})
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wc := conns[i%len(conns)]
		wg.Add(1)
		go func(wc *client.Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := oneOp(wc, rng); err != nil {
					errc <- err
					return
				}
				if measuring.Load() {
					ops.Add(1)
				}
			}
		}(wc, int64(i+1))
	}

	if rebalance {
		bound := 30 * time.Second
		if window < time.Second { // quick mode: cap the convergence wait too
			bound = 10 * time.Second
		}
		reshardConverge(cl, hot, bound)
	}
	measuring.Store(true)
	start := time.Now()
	time.Sleep(window)
	measuring.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		return reshardRow{}, err
	default:
	}

	return reshardRow{
		Nodes:      nodes,
		Shards:     shards,
		Rebalance:  rebalance,
		Ops:        ops.Load(),
		OpsPerS:    float64(ops.Load()) / elapsed.Seconds(),
		Directives: cl.Dir.View().Directives.Len(),
		Migrations: tel.Metrics().Counter(telemetry.MetServerMigrations).Value(),
	}, nil
}

// reshardConverge waits (bounded) until the rebalancer has spread the
// hot shards so that no member is primary for more than its fair share —
// the signal that the measured window starts from the rebalanced steady
// state.
func reshardConverge(cl *cluster.Cluster, hot []core.Ref, bound time.Duration) {
	nodes := len(cl.NodeIDs())
	if nodes == 0 {
		return
	}
	fair := (len(hot) + nodes - 1) / nodes
	deadline := time.Now().Add(bound)
	for time.Now().Before(deadline) {
		place := cl.Dir.Placement()
		perNode := make(map[ring.NodeID]int)
		for _, ref := range hot {
			if set := place.PlaceRef(ref, cl.RF()); len(set) > 0 {
				perNode[set[0]]++
			}
		}
		worst := 0
		for _, n := range perNode {
			if n > worst {
				worst = n
			}
		}
		// Fair spread is the goal, not directives per se: when hash
		// placement already spreads the shards, there is nothing for
		// the rebalancer to do and no directive ever appears.
		if worst <= fair {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}
