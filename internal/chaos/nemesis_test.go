// Nemesis harness: concurrent counter/map/list workloads run against a
// live cluster while a seeded fault schedule partitions links, drops and
// duplicates frames, and crashes/restarts nodes. Every recorded per-object
// history must be linearizable — the paper's central guarantee must hold
// not just on the happy path but under the full fault model.
//
// The tests live in package chaos_test because they drive the cluster
// package, which itself links the chaos engine in.
package chaos_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/client"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/linearizability"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// nemObject is one shared object under test plus its recorded history.
type nemObject struct {
	kind    string // "counter", "map", "list"
	ref     core.Ref
	persist bool
	model   linearizability.Model

	mu      sync.Mutex
	history []linearizability.Operation
}

func (o *nemObject) record(op linearizability.Operation) {
	o.mu.Lock()
	o.history = append(o.history, op)
	o.mu.Unlock()
}

// nemesisOpts parameterizes one nemesis run.
type nemesisOpts struct {
	seed      int64
	workers   int
	ops       int // ops per worker per object
	ephemeral bool
	// cache turns the lease-based client cache on (short TTL, so leases
	// expire and re-grant inside the schedule) — reads are then served
	// from client-local copies and primary-local reads, and the histories
	// must STILL be linearizable under every fault in the plan. A probe
	// client (cacheProbe) joins the workload and the run fails unless it
	// was served from its cache again after a write had invalidated it.
	cache bool
	// lockstep starts every worker's k-th operation at the same instant,
	// lockstepSlot after the (k-1)-th (a late worker goes at once), so
	// each object sees its writers in bursts: the group-commit schedules
	// use it to queue writes on a lane.
	lockstep bool
	// plan builds the fault schedule from the cluster's node names.
	plan func(nodes []string) chaos.Plan
	// during, when set, runs concurrently with the workload (a second
	// nemesis beyond the fault plan — e.g. a migration driver bouncing a
	// hot object between primaries). It must return when stop closes.
	during func(ctx context.Context, cl *cluster.Cluster, stop <-chan struct{})
	// profile, when set, injects network latency (cluster.Options.Profile).
	profile *netsim.Profile
}

// nemesisRetry is deliberately generous: a call may straddle several fault
// windows and must outlive all of them.
func nemesisRetry() core.RetryPolicy {
	return core.RetryPolicy{
		MaxRetries: 150,
		Backoff:    time.Millisecond,
		MaxBackoff: 15 * time.Millisecond,
		Multiplier: 1.5,
		Jitter:     0.3,
	}
}

// runNemesis executes the workload under the fault plan and checks every
// object history for linearizability. It returns the engine and telemetry
// for schedule-specific assertions.
func runNemesis(t *testing.T, o nemesisOpts) (*chaos.Engine, *telemetry.Telemetry) {
	t.Helper()
	if o.workers == 0 {
		o.workers = 3
	}
	if o.ops == 0 {
		o.ops = 4
		if testing.Short() {
			o.ops = 3
		}
	}
	tel := telemetry.New()
	eng := chaos.New(rpc.NewMemNetwork(), chaos.Options{Seed: o.seed, Telemetry: tel})
	copts := cluster.Options{
		Nodes:                3,
		RF:                   2,
		Chaos:                eng,
		Telemetry:            tel,
		ClientRetry:          nemesisRetry(),
		ClientAttemptTimeout: 200 * time.Millisecond,
		PeerCallTimeout:      250 * time.Millisecond,
		Profile:              o.profile,
	}
	if o.cache {
		copts.LeaseTTL = 50 * time.Millisecond
		copts.ClientCache = true
	}
	cl, err := cluster.StartLocal(copts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	objs := []*nemObject{
		{kind: "counter", ref: core.Ref{Type: objects.TypeAtomicLong, Key: "nem-counter-p"},
			persist: true, model: linearizability.CounterModel()},
		{kind: "map", ref: core.Ref{Type: objects.TypeMap, Key: "nem-map"},
			persist: true, model: linearizability.MapModel()},
		{kind: "list", ref: core.Ref{Type: objects.TypeList, Key: "nem-list"},
			persist: true, model: linearizability.ListModel()},
	}
	if o.ephemeral {
		// Ephemeral objects live on exactly one node and die with it, so
		// only schedules without crashes may include one.
		objs = append(objs, &nemObject{kind: "counter",
			ref:   core.Ref{Type: objects.TypeAtomicLong, Key: "nem-counter-e"},
			model: linearizability.CounterModel()})
	}

	nodes := make([]string, 0, 3)
	for _, id := range cl.NodeIDs() {
		nodes = append(nodes, string(id))
	}
	plan := o.plan(nodes)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	planDone := make(chan error, 1)
	go func() {
		planDone <- plan.Run(ctx, chaos.Target{
			Engine: eng,
			Crash:  func(n string) error { return cl.CrashNode(ring.NodeID(n)) },
			Restart: func(n string) error {
				_, err := cl.RestartNode(ring.NodeID(n))
				return err
			},
		})
	}()

	stopDuring := make(chan struct{})
	duringDone := make(chan struct{})
	if o.during != nil {
		go func() {
			defer close(duringDone)
			o.during(ctx, cl, stopDuring)
		}()
	} else {
		close(duringDone)
	}

	var wg sync.WaitGroup
	var probe *nemObject
	var rehits int
	if o.cache {
		probe = &nemObject{kind: "counter", persist: true, model: linearizability.CounterModel(),
			ref: core.Ref{Type: objects.TypeAtomicLong, Key: "nem-cache-probe"}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rehits = cacheProbe(t, ctx, cl, probe, o.workers)
		}()
	}
	// Workers dial first and then start together, so their first
	// operations contend on every object.
	var dialed sync.WaitGroup
	dialed.Add(o.workers)
	start := make(chan struct{})
	var begin time.Time // set before start closes
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := cl.NewClient()
			dialed.Done()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			<-start
			for i := 0; i < o.ops; i++ {
				for j, obj := range objs {
					nemesisOp(t, ctx, conn, obj, w, i)
					pause := time.Duration(4+(w+i)%5) * time.Millisecond
					if o.lockstep {
						pause = time.Until(begin.Add(time.Duration(i*len(objs)+j+1) * lockstepSlot))
					}
					time.Sleep(pause)
				}
			}
		}(w)
	}
	dialed.Wait()
	begin = time.Now()
	close(start)
	wg.Wait()
	close(stopDuring)
	<-duringDone
	if err := <-planDone; err != nil {
		t.Fatalf("fault plan: %v", err)
	}
	if t.Failed() {
		t.FailNow() // worker errors: histories are incomplete
	}
	if probe != nil {
		objs = append(objs, probe) // checked like the rest, worked on by the probe alone
		if rehits == 0 {
			t.Error("no read was served from the probe's cache after a write had invalidated it — the schedule checked a cache that dies on first write")
		}
	}

	for _, obj := range objs {
		obj.mu.Lock()
		history := append([]linearizability.Operation(nil), obj.history...)
		obj.mu.Unlock()
		if _, ok := linearizability.Check(obj.model, history); !ok {
			linearizability.SortByCall(history)
			t.Errorf("%s history (%s) not linearizable under seed %d:\n%+v",
				obj.kind, obj.ref.Key, o.seed, history)
		}
	}
	if total := eng.Counts().Total(); total == 0 {
		t.Error("fault plan injected no faults — the schedule did not engage")
	}
	return eng, tel
}

// nemesisOp issues one operation on obj and records it in the history.
func nemesisOp(t *testing.T, ctx context.Context, conn *client.Client, obj *nemObject, w, i int) {
	var method string
	var args []any
	var input any
	switch obj.kind {
	case "counter":
		if (w+i)%3 == 2 {
			method, input = "Get", linearizability.CounterOp{Kind: "get"}
		} else {
			method = "AddAndGet"
			args = []any{int64(1)}
			input = linearizability.CounterOp{Kind: "add", Delta: 1}
		}
	case "map":
		key := fmt.Sprintf("k%d", i%2)
		switch (w + i) % 3 {
		case 0:
			method = "Put"
			args = []any{key, int64(w*100 + i)}
			input = linearizability.MapOp{Kind: "put", Key: key, Value: int64(w*100 + i)}
		case 1:
			method = "Get"
			args = []any{key}
			input = linearizability.MapOp{Kind: "get", Key: key}
		default:
			method = "Remove"
			args = []any{key}
			input = linearizability.MapOp{Kind: "remove", Key: key}
		}
	case "list":
		if (w+i)%3 == 2 {
			method, input = "Size", linearizability.ListOp{Kind: "size"}
		} else {
			method = "Add"
			args = []any{int64(w*100 + i)}
			input = linearizability.ListOp{Kind: "add", Value: int64(w*100 + i)}
		}
	}

	nemesisCall(t, ctx, conn, obj, w, method, args, input)
}

// cacheProbeRounds × 3 operations is the probe's history, kept under the
// checker's 20-operation limit.
const cacheProbeRounds = 6

// cacheProbe is the cache-on schedules' witness that the client cache is
// alive *after* writes, not only before the first one. It owns one client
// and one persistent counter nobody else touches, so every invalidation
// that client counts and every hit it counts is for that ref; round after
// round it writes the counter (revoking its own lease) and reads it twice
// (re-lease, then hit). It returns how many reads were cache hits after
// the client had been invalidated at least once. The history — cached
// reads included — is checked like every other object's.
func cacheProbe(t *testing.T, ctx context.Context, cl *cluster.Cluster, obj *nemObject, id int) (rehits int) {
	conn, err := cl.NewClient()
	if err != nil {
		t.Error(err)
		return 0
	}
	defer conn.Close()
	for round := 0; round < cacheProbeRounds; round++ {
		nemesisCall(t, ctx, conn, obj, id, "AddAndGet", []any{int64(1)}, linearizability.CounterOp{Kind: "add", Delta: 1})
		for i := 0; i < 2; i++ {
			before := conn.DebugCacheStats()
			nemesisCall(t, ctx, conn, obj, id, "Get", nil, linearizability.CounterOp{Kind: "get"})
			if before.Invalidations > 0 && conn.DebugCacheStats().Hits > before.Hits {
				rehits++
			}
		}
		// Well inside the 50 ms TTL, so the next round's write finds the
		// lease alive and has to revoke it.
		time.Sleep(15 * time.Millisecond)
	}
	return rehits
}

// nemesisCall invokes method on obj and records the call in its history.
func nemesisCall(t *testing.T, ctx context.Context, conn *client.Client, obj *nemObject, w int, method string, args []any, input any) {
	call := time.Now()
	res, err := conn.InvokeObject(ctx, core.Invocation{
		Ref: obj.ref, Method: method, Args: args, Persist: obj.persist,
	})
	ret := time.Now()
	if err != nil {
		t.Errorf("worker %d %s.%s: %v", w, obj.ref.Key, method, err)
		return
	}
	obj.record(linearizability.Operation{
		ClientID: w,
		Input:    input,
		Output:   nemesisOutput(t, obj.kind, method, res),
		Call:     call,
		Return:   ret,
	})
}

// nemesisOutput converts a raw result slice into the model's output type.
func nemesisOutput(t *testing.T, kind, method string, res []any) any {
	switch kind {
	case "counter", "list":
		v, ok := core.NumberAsInt64(res[0])
		if !ok {
			t.Fatalf("%s.%s returned %T, want integer", kind, method, res[0])
		}
		return v
	case "map":
		had := res[1].(bool)
		out := linearizability.MapOut{OK: had}
		if had {
			v, ok := core.NumberAsInt64(res[0])
			if !ok {
				t.Fatalf("map.%s returned %T, want integer", method, res[0])
			}
			out.Value = v
		}
		return out
	}
	t.Fatalf("unknown object kind %q", kind)
	return nil
}

// spacing returns the fault-window period, shrunk in short mode.
func spacing() time.Duration {
	if testing.Short() {
		return 50 * time.Millisecond
	}
	return 70 * time.Millisecond
}

// windows returns the number of fault windows, shrunk in short mode.
func windows() int {
	if testing.Short() {
		return 2
	}
	return 4
}

// TestNemesisPartition runs the workload under symmetric and asymmetric
// partitions (seed 101). Ephemeral objects are included: no node dies, so
// single-copy state survives.
func TestNemesisPartition(t *testing.T) {
	runNemesis(t, nemesisOpts{
		seed:      101,
		ephemeral: true,
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := s * time.Duration(w)
				victim := nodes[w%len(nodes)]
				rest := make([]string, 0, len(nodes)-1)
				for _, n := range nodes {
					if n != victim {
						rest = append(rest, n)
					}
				}
				if w%2 == 0 {
					steps = append(steps, chaos.Step{At: at, Kind: chaos.ActPartition,
						Groups: [][]string{{victim}, rest}})
				} else {
					steps = append(steps, chaos.Step{At: at, Kind: chaos.ActPartitionOneWay,
						From: []string{victim}, To: rest})
				}
				steps = append(steps, chaos.Step{At: at + s*3/4, Kind: chaos.ActHeal})
			}
			return chaos.Plan{Steps: steps}
		},
	})
}

// TestNemesisDropDelay runs the workload under probabilistic frame drops
// and delays on every link (seed 202). Delay doubles as reordering.
func TestNemesisDropDelay(t *testing.T) {
	runNemesis(t, nemesisOpts{
		seed:      202,
		ephemeral: true,
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := s * time.Duration(w)
				r := chaos.Rule{Faults: chaos.LinkFaults{Drop: 0.12}}
				if w%2 == 1 {
					r = chaos.Rule{Faults: chaos.LinkFaults{
						Delay: 0.4, DelayBy: 2 * time.Millisecond, DelayJitter: 4 * time.Millisecond}}
				}
				steps = append(steps,
					chaos.Step{At: at, Kind: chaos.ActRule, Rule: r},
					chaos.Step{At: at + s*3/4, Kind: chaos.ActClearRules})
			}
			return chaos.Plan{Steps: steps}
		},
	})
}

// TestNemesisDuplicate duplicates invocation requests (seed 303): the
// server executes the original and must answer the duplicate from the
// at-most-once window, otherwise counters double-count and the histories
// fail the check.
func TestNemesisDuplicate(t *testing.T) {
	_, tel := runNemesis(t, nemesisOpts{
		seed:      303,
		ephemeral: true,
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			return chaos.Plan{Steps: []chaos.Step{
				{At: 0, Kind: chaos.ActRule, Rule: chaos.Rule{
					From: "client-*", Dir: chaos.Requests, Kind: server.KindInvoke,
					Faults: chaos.LinkFaults{Duplicate: 0.5}}},
				{At: s * time.Duration(windows()), Kind: chaos.ActClearRules},
			}}
		},
	})
	hits := tel.Metrics().Counter(telemetry.MetServerDedupHits).Value()
	if hits == 0 {
		t.Error("duplicated requests never hit the dedup window")
	}
}

// TestNemesisCrashRestart crashes and restarts nodes (seed 404): crashed
// state must survive on replicas (RF=2) and hand back via state transfer
// when the node rejoins. Persistent objects only — ephemeral state dies
// with its node by design.
func TestNemesisCrashRestart(t *testing.T) {
	runNemesis(t, nemesisOpts{
		seed: 404,
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := s * time.Duration(w)
				victim := nodes[1+w%(len(nodes)-1)] // rotate over non-first nodes
				steps = append(steps,
					chaos.Step{At: at, Kind: chaos.ActCrash, Node: victim},
					chaos.Step{At: at + s*3/4, Kind: chaos.ActRestart, Node: victim})
			}
			return chaos.Plan{Steps: steps}
		},
	})
}

// batchWorkers and batchOps shape the two group-commit schedules: ten
// workers in lockstep put six or seven writers on each object at once,
// well past a lane's two rounds in flight, so writes really queue and
// ride combined rounds; two ops each keep every history inside the
// checker's 20.
const batchWorkers, batchOps = 10, 2

// batchHop gives the group-commit schedules a replica hop, as
// TestWriteBatchingExactlyOnce does. Over the buffered in-process network a
// round can otherwise finish before the next lockstep writer wakes, so
// whether any write queued behind the lane's rounds in flight was left to
// goroutine timing; with 200 µs on every replica call a burst of writers
// always finds both rounds still open.
func batchHop() *netsim.Profile {
	return &netsim.Profile{Scale: 1, DSOReplica: netsim.Latency{Base: 200 * time.Microsecond}}
}

// lockstepSlot is the time between a lockstep schedule's operations. At
// 16 ms a group-commit schedule's six (two on each object) span more than
// one fault window; at 8 ms they all landed in the first partition, where
// queued writes give up before a stalled round frees their lane.
const lockstepSlot = 16 * time.Millisecond

// requireCombinedRound fails a group-commit schedule in which no round
// carried more than one write: it would have checked rounds of one only.
func requireCombinedRound(t *testing.T, tel *telemetry.Telemetry) {
	t.Helper()
	if tel.Metrics().Histogram(telemetry.HistServerBatchSize).Snapshot().Max <= time.Microsecond {
		t.Error("no round carried more than one write: the schedule never exercised group commit")
	}
}

// TestNemesisWriteBatchPartition runs the group-commit workload (seed 505)
// under the partition schedule: concurrent mutations share ordering rounds
// while partitions isolate the coordinator mid-round, so retried writes
// land in *different* rounds than their first attempt and only the
// per-sub-operation at-most-once window keeps them applied once. Every
// history must stay linearizable.
func TestNemesisWriteBatchPartition(t *testing.T) {
	_, tel := runNemesis(t, nemesisOpts{
		seed:      505,
		workers:   batchWorkers,
		ops:       batchOps,
		lockstep:  true,
		ephemeral: true,
		profile:   batchHop(),
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := s * time.Duration(w)
				victim := nodes[w%len(nodes)]
				rest := make([]string, 0, len(nodes)-1)
				for _, n := range nodes {
					if n != victim {
						rest = append(rest, n)
					}
				}
				steps = append(steps,
					chaos.Step{At: at, Kind: chaos.ActPartition,
						Groups: [][]string{{victim}, rest}},
					chaos.Step{At: at + s*3/4, Kind: chaos.ActHeal})
			}
			return chaos.Plan{Steps: steps}
		},
	})
	requireCombinedRound(t, tel)
}

// TestNemesisWriteBatchCrashRestart crashes nodes under the group-commit
// workload (seed 707): a coordinator may die with writes queued and rounds
// in flight, replicas must converge on the combined rounds' state, and the
// restarted node's state transfer must hand back object versions advanced
// by whole rounds at a time.
func TestNemesisWriteBatchCrashRestart(t *testing.T) {
	_, tel := runNemesis(t, nemesisOpts{
		seed:     707,
		workers:  batchWorkers,
		ops:      batchOps,
		lockstep: true,
		profile:  batchHop(),
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := s * time.Duration(w)
				victim := nodes[1+w%(len(nodes)-1)] // rotate over non-first nodes
				steps = append(steps,
					chaos.Step{At: at, Kind: chaos.ActCrash, Node: victim},
					chaos.Step{At: at + s*3/4, Kind: chaos.ActRestart, Node: victim})
			}
			return chaos.Plan{Steps: steps}
		},
	})
	requireCombinedRound(t, tel)
}

// TestNemesisCachePartition runs the workload with the lease-based client
// cache ON (seed 606): reads are served from client-local copies and the
// primaries' own copies while partitions isolate nodes, and one window drops
// every frame reaching the cache-side invalidation listeners — the
// blackholed-invalidation case, where a writer must wait out the lease
// TTL before committing because it cannot reach the holders. The
// histories must stay linearizable throughout; a cache that served one
// stale read would fail the check.
func TestNemesisCachePartition(t *testing.T) {
	_, tel := runNemesis(t, nemesisOpts{
		seed:      606,
		ephemeral: true,
		cache:     true,
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := s * time.Duration(w)
				if w%2 == 0 {
					victim := nodes[w%len(nodes)]
					rest := make([]string, 0, len(nodes)-1)
					for _, n := range nodes {
						if n != victim {
							rest = append(rest, n)
						}
					}
					steps = append(steps, chaos.Step{At: at, Kind: chaos.ActPartition,
						Groups: [][]string{{victim}, rest}})
				} else {
					// Blackhole invalidations and revocations: nothing from
					// any node reaches any client cache listener.
					steps = append(steps, chaos.Step{At: at, Kind: chaos.ActRule,
						Rule: chaos.Rule{From: "dso-*", To: "cache-client-*",
							Faults: chaos.LinkFaults{Drop: 1}}})
				}
				steps = append(steps,
					chaos.Step{At: at + s*3/4, Kind: chaos.ActHeal},
					chaos.Step{At: at + s*3/4, Kind: chaos.ActClearRules})
			}
			return chaos.Plan{Steps: steps}
		},
	})
	if g := tel.Metrics().Counter(telemetry.MetServerLeaseGrants).Value(); g == 0 {
		t.Error("cache nemesis granted no leases — the cache never engaged")
	}
}

// TestNemesisCacheCrashRestart crashes and restarts nodes with the client
// cache ON (seed 707): leases granted by a primary die with it, and the
// view-change fence on the successor must keep every still-leased cached
// copy consistent until it has provably expired. Persistent objects only.
// The windows are twice as wide as the cache-off schedule's: every view
// change arms a one-TTL write fence, so recovery (rejoin + state
// transfer + fence) takes longer, and RF=2 only tolerates one lost copy
// at a time — crashing the next node before the previous one has caught
// back up would exceed the fault model, not test it.
func TestNemesisCacheCrashRestart(t *testing.T) {
	_, tel := runNemesis(t, nemesisOpts{
		seed:  707,
		cache: true,
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := 2 * s * time.Duration(w)
				victim := nodes[1+w%(len(nodes)-1)] // rotate over non-first nodes
				steps = append(steps,
					chaos.Step{At: at, Kind: chaos.ActCrash, Node: victim},
					chaos.Step{At: at + s/2, Kind: chaos.ActRestart, Node: victim})
			}
			return chaos.Plan{Steps: steps}
		},
	})
	if g := tel.Metrics().Counter(telemetry.MetServerLeaseGrants).Value(); g == 0 {
		t.Error("cache nemesis granted no leases — the cache never engaged")
	}
}

// TestNemesisMigrationPartition live-migrates the hot persistent counter
// between primaries while partitions land (seed 808): a migration driver
// re-pins the object onto whichever nodes are not its current primary, over
// and over, as the fault plan isolates nodes — so pushes fail mid-flight,
// directive flips race invocations, and clients chase the object through
// ErrRebalancing bounces. Every history must stay linearizable: a migration
// that lost an update, forked the lineage (dual primary), or served a stale
// read through a surviving lease would fail the check.
func TestNemesisMigrationPartition(t *testing.T) {
	hot := core.Ref{Type: objects.TypeAtomicLong, Key: "nem-counter-p"}
	_, tel := runNemesis(t, nemesisOpts{
		seed:      808,
		ephemeral: true,
		plan: func(nodes []string) chaos.Plan {
			s := spacing()
			var steps []chaos.Step
			for w := 0; w < windows(); w++ {
				at := s * time.Duration(w)
				victim := nodes[w%len(nodes)]
				rest := make([]string, 0, len(nodes)-1)
				for _, n := range nodes {
					if n != victim {
						rest = append(rest, n)
					}
				}
				steps = append(steps,
					chaos.Step{At: at, Kind: chaos.ActPartition,
						Groups: [][]string{{victim}, rest}},
					chaos.Step{At: at + s*3/4, Kind: chaos.ActHeal})
			}
			return chaos.Plan{Steps: steps}
		},
		during: func(ctx context.Context, cl *cluster.Cluster, stop <-chan struct{}) {
			for {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				// Re-pin the hot counter onto everyone but its current
				// primary. Failures are expected mid-partition (the push
				// cannot reach the new primary) and must be harmless: the
				// fence lifts, the directive stays put, clients retry.
				set := cl.Dir.View().Place(hot.String(), cl.RF())
				if len(set) > 0 {
					if n, ok := cl.Node(set[0]); ok {
						var targets []ring.NodeID
						for _, id := range cl.NodeIDs() {
							if id != set[0] {
								targets = append(targets, id)
							}
						}
						if len(targets) > cl.RF() {
							targets = targets[:cl.RF()]
						}
						mctx, cancel := context.WithTimeout(ctx, 2*time.Second)
						_ = n.MigrateObject(mctx, hot, targets, false)
						cancel()
					}
				}
				select {
				case <-stop:
					return
				case <-time.After(spacing() / 3):
				}
			}
		},
	})
	if tel.Metrics().Counter(telemetry.MetServerMigrations).Value() == 0 {
		t.Error("no live migration ever completed during the schedule")
	}
}

// TestNemesisCombined drives a generated schedule mixing partitions, link
// faults and crash/restarts (seed 505). GeneratePlan is deterministic, so
// a failure reproduces from the seed alone.
func TestNemesisCombined(t *testing.T) {
	if testing.Short() {
		t.Skip("combined schedule is the long nemesis; short mode runs the focused ones")
	}
	runNemesis(t, nemesisOpts{
		seed: 505,
		plan: func(nodes []string) chaos.Plan {
			return chaos.GeneratePlan(505, chaos.PlanConfig{
				Nodes:        nodes,
				Steps:        6,
				Spacing:      spacing(),
				Partitions:   true,
				LinkFaults:   true,
				CrashRestart: true,
			})
		},
	})
}
