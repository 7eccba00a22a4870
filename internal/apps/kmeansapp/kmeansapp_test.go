package kmeansapp

import (
	"context"
	"math"
	"testing"
	"time"

	"crucial"
	"crucial/internal/ml"
	"crucial/internal/netsim"
	"crucial/internal/sparksim"
	"crucial/internal/storage/redissim"
	"crucial/internal/telemetry"
	"crucial/internal/vmsim"
)

func testCfg() Config {
	return Config{
		K: 3, Dims: 4, Workers: 3, MaxIterations: 4,
		PointsPerWorker: 120, Seed: 7,
	}
}

func newRuntime(t *testing.T) *crucial.Runtime {
	t.Helper()
	reg := crucial.NewTypeRegistry()
	RegisterTypes(reg)
	rt, err := crucial.NewLocalRuntime(crucial.Options{DSONodes: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	crucial.Register(&Worker{})
	return rt
}

// referenceRun computes the exact expected model: same init, same
// partitions, sequential.
func referenceRun(cfg Config) [][]float64 {
	cfg = cfg.withDefaults()
	centroids := cfg.initialCentroids()
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		var agg ml.PartitionStats
		for p := 0; p < cfg.Workers; p++ {
			st := ml.AssignPartition(cfg.partition(p), centroids)
			if p == 0 {
				agg = st
			} else {
				agg = ml.MergeStats(agg, st)
			}
		}
		centroids, _ = ml.RecomputeCentroids(agg, centroids)
	}
	return centroids
}

func assertCentroidsEqual(t *testing.T, got, want [][]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centroids, want %d", label, len(got), len(want))
	}
	for c := range want {
		for d := range want[c] {
			if math.Abs(got[c][d]-want[c][d]) > 1e-6 {
				t.Fatalf("%s: centroid[%d][%d] = %v, want %v", label, c, d, got[c][d], want[c][d])
			}
		}
	}
}

func TestCrucialMatchesReference(t *testing.T) {
	rt := newRuntime(t)
	cfg := testCfg()
	res, err := RunCrucial(context.Background(), rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, res.Centroids, referenceRun(cfg), "crucial")
}

func TestSparkMatchesReference(t *testing.T) {
	c, err := sparksim.NewCluster(sparksim.Config{
		Workers: 2, CoresPerWorker: 2, Profile: netsim.Zero(), TaskOverheadMs: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	res, err := RunSpark(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, res.Centroids, referenceRun(cfg), "spark")
	if len(res.IterTimes) != cfg.MaxIterations {
		t.Fatalf("iteration times = %d", len(res.IterTimes))
	}
}

func TestVMMatchesReference(t *testing.T) {
	m, err := vmsim.NewMachine("vm", 2, netsim.Zero())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	res, err := RunVM(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, res.Centroids, referenceRun(cfg), "vm")
}

func TestRedisMatchesReference(t *testing.T) {
	rc := redissim.NewCluster(2, netsim.Zero())
	defer rc.Close()
	RegisterRedisScripts(rc)
	cfg := testCfg()
	res, err := RunCrucialRedis(context.Background(), rc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, res.Centroids, referenceRun(cfg), "redis")
}

// All four engines agree with each other (transitively via the reference),
// which is the strongest cross-validation of the harness.
func TestAllEnginesAgree(t *testing.T) {
	cfg := testCfg()
	want := referenceRun(cfg)

	rt := newRuntime(t)
	crucialRes, err := RunCrucial(context.Background(), rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, crucialRes.Centroids, want, "crucial-vs-all")
}

func TestModeledComputeExtendsRuntime(t *testing.T) {
	m, err := vmsim.NewMachine("vm", 4, netsim.Zero())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	cfg.MaxIterations = 2
	base, err := RunVM(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ModeledPointsPerWorker = 1000
	cfg.NsPerOp = 2000 // 1000*3*4*2000ns = 24ms per iteration
	padded, err := RunVM(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if padded.Total < base.Total+30*time.Millisecond {
		t.Fatalf("modeled compute had no effect: base %v, padded %v", base.Total, padded.Total)
	}
}

func TestUnflattenAndFlatten(t *testing.T) {
	st := ml.PartitionStats{
		Sums:   [][]float64{{1, 2}, {3, 4}},
		Counts: []int64{5, 6},
	}
	sums, counts := FlattenStats(st)
	if len(sums) != 4 || sums[2] != 3 || counts[1] != 6 {
		t.Fatalf("flatten = %v %v", sums, counts)
	}
	grid := Unflatten([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if grid[1][0] != 4 || grid[0][2] != 3 {
		t.Fatalf("unflatten = %v", grid)
	}
}

func TestCentroidsObjectValidation(t *testing.T) {
	if _, err := newCentroidsObject([]any{int64(0), int64(2), int64(2), int64(1)}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := newDeltaObject([]any{int64(0)}); err == nil {
		t.Fatal("parties=0 accepted")
	}
}

func TestDeltaObjectFold(t *testing.T) {
	obj, err := newDeltaObject([]any{int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	d := obj.(*deltaObject)
	if _, err := d.Call(nil, "Update", []any{3.5}); err != nil {
		t.Fatal(err)
	}
	res, err := d.Call(nil, "Last", nil)
	if err != nil || res[0].(float64) != -1 {
		t.Fatalf("Last before fold = %v %v", res, err)
	}
	if _, err := d.Call(nil, "Update", []any{1.5}); err != nil {
		t.Fatal(err)
	}
	res, _ = d.Call(nil, "Last", nil)
	if res[0].(float64) != 3.5 {
		t.Fatalf("Last after fold = %v", res)
	}
}

func TestCentroidsSnapshotRoundTrip(t *testing.T) {
	obj, err := newCentroidsObject([]any{int64(2), int64(3), int64(1), int64(9)})
	if err != nil {
		t.Fatal(err)
	}
	co := obj.(*centroidsObject)
	if _, err := co.Call(nil, "Update", []any{[]float64{1, 2, 3, 4, 5, 6}, []int64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	data, err := co.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	obj2, _ := newCentroidsObject([]any{int64(1), int64(1), int64(1), int64(1)})
	co2 := obj2.(*centroidsObject)
	if err := co2.Restore(data); err != nil {
		t.Fatal(err)
	}
	res, err := co2.Call(nil, "Get", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].([]float64)
	if len(got) != 6 || got[0] != 1 || got[5] != 6 {
		t.Fatalf("restored centroids = %v (fold with parties=1 should equal the update)", got)
	}
}

func TestPersistentTraining(t *testing.T) {
	reg := crucial.NewTypeRegistry()
	RegisterTypes(reg)
	rt, err := crucial.NewLocalRuntime(crucial.Options{DSONodes: 3, RF: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	crucial.Register(&Worker{})

	cfg := testCfg().withDefaults()
	cfg.Persist = true
	res, err := RunCrucial(context.Background(), rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, res.Centroids, referenceRun(cfg), "persistent")

	// The model survives the primary's crash.
	ref := "kmeans.GlobalCentroids[" + cfg.KeyPrefix + "/centroids]"
	view := rt.Cluster().Dir.View()
	primary := view.Ring().ReplicaSet(ref, 2)[0]
	if err := rt.Cluster().CrashNode(primary); err != nil {
		t.Fatal(err)
	}
	probe := NewCentroids(cfg.KeyPrefix+"/centroids", cfg.K, cfg.Dims, cfg.Workers, cfg.Seed, crucial.WithPersist())
	rt.Bind(probe)
	flat, _, err := probe.Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, Unflatten(flat, cfg.K, cfg.Dims), res.Centroids, "after-crash")
}

// The Section 4.4 story end-to-end: cloud threads fail randomly, the
// retry policy re-invokes them with identical payloads, and the shared
// iteration counter keeps re-execution idempotent — the final model must
// equal the failure-free reference exactly.
func TestTrainingSurvivesInjectedFunctionFailures(t *testing.T) {
	reg := crucial.NewTypeRegistry()
	RegisterTypes(reg)
	rt, err := crucial.NewLocalRuntime(crucial.Options{
		DSONodes:     2,
		Registry:     reg,
		FailureRate:  0.5,
		DefaultRetry: crucial.RetryPolicy{MaxRetries: 30, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	crucial.Register(&Worker{})

	cfg := testCfg()
	cfg.Workers = 6 // enough invocations that the seeded injector fires
	cfg.KeyPrefix = "kmeans-faulty"
	res, err := RunCrucial(context.Background(), rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCentroidsEqual(t, res.Centroids, referenceRun(cfg), "faulty")
	if rt.Platform().Metrics().Counter(telemetry.MetFaaSFailures).Value() == 0 {
		t.Fatal("no failures injected; the retry path was not exercised")
	}
}
