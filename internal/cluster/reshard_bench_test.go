package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/telemetry"
)

// The elastic-resharding benchmarks (`go test -run '^$' -bench
// BenchmarkReshard -benchtime 1500x ./internal/cluster/`): a zipfian-style
// hot-spot workload — most operations hammer one viral counter, the rest
// spread over a cold tail — on a 5-node cluster whose per-node capacity is
// modelled with the ServiceTime/ServiceConcurrency gate (5ms × 4
// in-service ops, the same M/M/c model crucial-bench uses). Three
// placements of the same offered load:
//
//   - Static: the viral counter is one object on its hash primary. The
//     whole hot fraction funnels through one node's gate; aggregate
//     throughput is pinned near single-node capacity no matter how many
//     members the cluster has.
//   - Sharded: the viral counter is split crucial.ShardedCounter-style
//     into N sub-counters ("<key>#s<i>") that hash across the ring.
//     Recovery is real but at the mercy of placement luck — whichever
//     node draws the most shards is the new bottleneck.
//   - Elastic: sharded AND the rebalancer on. The coordinator detects
//     the hot shards from merged per-node windowed rates and
//     live-migrates them until no member carries more than its share,
//     recovering toward the uniform-load ceiling (DESIGN.md §5g).
//
// The acceptance bar (ISSUE/EXPERIMENTS): elastic ≥ 3× static ops/s.

const (
	reshardNodes    = 5
	reshardShards   = 10
	reshardTailKeys = 32
	// reshardHotFrac is the zipfian head: the fraction of operations
	// aimed at the viral counter.
	reshardHotFrac = 0.85
	// Per-node capacity model: 4 concurrent slots × 5ms service time
	// = 800 ops/s per node, 4000 ops/s uniform-load ceiling. 5ms stays
	// above netsim's busy-spin threshold, so waiting burns no CPU.
	reshardServiceTime = 5 * time.Millisecond
	reshardServiceConc = 4
)

// reshardRefs builds the hot refs (one for static, the shard set
// otherwise) and the cold tail population.
func reshardRefs(sharded bool) (hot []core.Ref, tail []core.Ref) {
	if sharded {
		for i := 0; i < reshardShards; i++ {
			hot = append(hot, core.Ref{Type: objects.TypeAtomicLong,
				Key: shardKeyName("bench/viral", i)})
		}
	} else {
		hot = []core.Ref{{Type: objects.TypeAtomicLong, Key: "bench/viral"}}
	}
	for i := 0; i < reshardTailKeys; i++ {
		tail = append(tail, core.Ref{Type: objects.TypeAtomicLong,
			Key: tailKeyName(i)})
	}
	return hot, tail
}

func shardKeyName(key string, i int) string {
	// Mirrors crucial.ShardedCounter's shard derivation "<key>#s<i>"
	// (internal/cluster cannot import the root package).
	return key + "#s" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func tailKeyName(i int) string {
	return "bench/tail-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// reshardOp performs one zipfian draw: a write on a hot shard with
// probability reshardHotFrac, a read on a random tail key otherwise.
func reshardOp(ctx context.Context, cl *client.Client, rng *rand.Rand, hot, tail []core.Ref) error {
	if rng.Float64() < reshardHotFrac {
		_, err := cl.Call(ctx, hot[rng.Intn(len(hot))], "AddAndGet", int64(1))
		return err
	}
	_, err := cl.Call(ctx, tail[rng.Intn(len(tail))], "Get")
	return err
}

func benchReshard(b *testing.B, sharded bool, rebalance bool) {
	b.Helper()
	opts := Options{
		Nodes:              reshardNodes,
		RF:                 2,
		Telemetry:          telemetry.New(),
		ServiceTime:        reshardServiceTime,
		ServiceConcurrency: reshardServiceConc,
	}
	if rebalance {
		opts.Rebalance = core.RebalancePolicy{
			Enabled:  true,
			Interval: 100 * time.Millisecond,
			HotRate:  50,
			// Shards run well above the population mean (the tail keys
			// drag it down), so the default-ish skew gate fires.
			HotFactor: 2,
			Sustain:   2,
			// Longer than two tracker rate epochs: a migrated key must be
			// re-measured at its new home before it may move again, or
			// stale windows drive placement ping-pong.
			Cooldown: 12 * time.Second,
		}
	}
	c, cl := benchCluster(b, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	hot, tail := reshardRefs(sharded)

	clients := []*client.Client{cl}
	for i := 1; i < 8; i++ {
		extra, err := c.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = extra.Close() })
		clients = append(clients, extra)
	}

	// Create every object up front so genesis placement is out of the
	// measured loop.
	for _, ref := range append(append([]core.Ref{}, hot...), tail...) {
		if _, err := cl.Call(ctx, ref, "Set", int64(0)); err != nil {
			b.Fatal(err)
		}
	}

	if rebalance {
		reshardWarmup(b, c, clients, hot, tail)
	}

	var next atomic.Uint64
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := next.Add(1)
		cl := clients[id%uint64(len(clients))]
		rng := rand.New(rand.NewSource(int64(id)))
		for pb.Next() {
			if err := reshardOp(ctx, cl, rng, hot, tail); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
}

// reshardWarmup drives the zipfian workload outside the timer until the
// rebalancer has spread the hot shards — no member left as primary for
// more than ceil(shards/nodes) of them — so the measured region is the
// rebalanced steady state, not the convergence transient.
func reshardWarmup(b *testing.B, c *Cluster, clients []*client.Client, hot, tail []core.Ref) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(cl *client.Client, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = reshardOp(ctx, cl, rng, hot, tail)
			}
		}(cl, int64(1000+i))
	}
	fair := (len(hot) + reshardNodes - 1) / reshardNodes
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		perNode := make(map[ring.NodeID]int)
		v := c.Dir.View()
		for _, ref := range hot {
			if set := v.Place(ref.String(), c.RF()); len(set) > 0 {
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
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

func BenchmarkReshardStatic(b *testing.B) {
	benchReshard(b, false, false)
}

func BenchmarkReshardSharded(b *testing.B) {
	benchReshard(b, true, false)
}

func BenchmarkReshardElastic(b *testing.B) {
	benchReshard(b, true, true)
}
