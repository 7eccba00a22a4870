package main

// spec.go is the benchmark's vocabulary: the load model, the workloads,
// and every metric name with its unit, direction and regression bound.
// BENCHMARK.json at the repository root repeats the names and bounds for
// the driver; TestSpecMatchesBenchmarkJSON fails when the two disagree.

// Load model. Every gated workload is a closed loop with a fixed caller
// count: callers here are cloud threads and statefun senders that each
// wait for a reply. The numbers are constants, not derived from the
// machine: 2 client connections (nproc on the reference box) with 4
// outstanding calls each. The callers are goroutines parked on replies;
// with fewer, group commit and lease revocation have nothing to do.
// statefun_call alone has 2 callers (statefun.go says why).
const (
	clientConns  = 2
	callsPerConn = 4
	callers      = clientConns * callsPerConn

	// defaultSeconds is the measured time of a gated run (run_seconds in
	// BENCHMARK.json). The driver's time cap (92 runs and two builds in
	// 3420 s, and a kv_* run spends 13 s and more on its three set-ups) is
	// why it is 21 s and not the 30 s the issue prototyped with.
	defaultSeconds = 21

	// A gated run sets the system up gatedWindows times — setup_s is the
	// median — and measures a third of the time on each instance, in
	// slicesPerWindow slices. A timing metric is the mean of the best four
	// of the six per-slice values (steady, in stats.go), so a burst of
	// neighbour noise moves a slice that is dropped, not the figure.
	gatedWindows    = 3
	slicesPerWindow = 2
	sliceCount      = gatedWindows * slicesPerWindow
)

const (
	lower  = "lower"
	higher = "higher"
)

// metricSpec names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the gated metrics, measured with tracing off and
// reported for every workload. fail_ratio is printed beside them but is
// not gated by name: the driver refuses metrics that can read zero, and
// takes failures from the attempted/failed counts of every run instead.
//
// The issue asked for 10 % on the timings and 3 % on allocations. The
// reference box does not allow it: a pure CPU loop there takes 150 to
// 236 ms from one second to the next, and ten runs of a workload spread
// 5–17 % on the timings (calibration.txt), up to 29 % before the measured
// time was split over the set-ups. One bound serves all four workloads
// and should be three times the spread, so each is the driver's 25 % cap
// where time or heap growth is involved, and 10 % for allocations, four
// times the widest spread measured (statefun_call, whose polling
// allocates by the second, not by the call).
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_us", "us", lower, 0.25},
	{"op_p99_us", "us", lower, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.10},
	{"live_heap_mb", "MB", lower, 0.25},
}

const failRatio = "fail_ratio"

// perLayer lists the metrics of a traced run, named after the packages
// under internal/. Sources: benchmark-owned spans and wrappers ("span"),
// deltas of the registry counters the program already exports
// ("counter"), and sequential probes of one layer's public functions
// ("probe"). A metric that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{"core.codec_us", "us", lower, 0},
	{"core.codec_allocs", "count", lower, 0},
	{"rpc.echo_us", "us", lower, 0},
	{"rpc.client_frames_per_op", "count", lower, 0},
	{"rpc.peer_frames_per_op", "count", lower, 0},
	{"rpc.cache_frames_per_op", "count", lower, 0},
	{"rpc.bytes_per_op", "B", lower, 0},
	{"rpc.write_busy_us_per_op", "us", lower, 0},
	{"ring.place_ns", "ns", lower, 0},
	{"client.calls_per_op", "count", lower, 0},
	{"client.reroutes_per_op", "count", lower, 0},
	{"client.cache_hit_ratio", "ratio", higher, 0},
	{"client.cache_invalidations_per_write", "count", lower, 0},
	{"server.invoke_rf1_us", "us", lower, 0},
	{"server.invoke_rf2_us", "us", lower, 0},
	{"server.invoke_rf2_full_us", "us", lower, 0},
	{"server.smr_rounds_per_write", "count", lower, 0},
	{"server.batch_size_mean", "count", higher, 0},
	{"server.lease_grants_per_read", "count", lower, 0},
	{"server.lease_revokes_per_write", "count", lower, 0},
	{"server.local_read_ratio", "ratio", higher, 0},
	{"server.exec_us", "us", lower, 0},
	{"server.monitor_wait_us", "us", lower, 0},
	{"totalorder.multicast_us", "us", lower, 0},
	{"durability.append_wait_us", "us", lower, 0},
	{"durability.appends_per_fsync", "count", higher, 0},
	{"durability.wal_bytes_per_write", "B", lower, 0},
	{"durability.puts_per_op", "count", lower, 0},
	{"durability.put_busy_us_per_op", "us", lower, 0},
	{"durability.snapshot_bytes_per_s", "B/s", lower, 0},
	{"faas.invoke_us", "us", lower, 0},
	{"faas.invocations_per_op", "count", lower, 0},
	{"thread.spawn_join_us", "us", lower, 0},
	{"statefun.send_us", "us", lower, 0},
	{"statefun.call_idle_us", "us", lower, 0},
	{"statefun.dispatches_per_msg", "count", lower, 0},
	{"statefun.redeliveries_per_msg", "count", lower, 0},
	{"statefun.dups_per_msg", "count", lower, 0},
	{"budget.cold_start_share", "ratio", lower, 0},
	{"budget.invoke_queue_share", "ratio", lower, 0},
	{"budget.rpc_share", "ratio", lower, 0},
	{"budget.monitor_wait_share", "ratio", lower, 0},
	{"budget.exec_share", "ratio", lower, 0},
	{"budget.smr_order_share", "ratio", lower, 0},
	{"budget.function_compute_share", "ratio", lower, 0},
	{"budget.durability_share", "ratio", lower, 0},
	{"budget.other_share", "ratio", lower, 0},
	{"budget.unexplained_us", "us", lower, 0},
	{"gc.pause_ms_per_s", "ms/s", lower, 0},
	{"gc.cycles_per_s", "1/s", lower, 0},
	{"trace.overhead_ratio", "ratio", higher, 0},
}

// workloadSpec names one workload, says why it exists, and builds it.
type workloadSpec struct {
	Name string
	Why  string
	// Callers is how many operations the closed loop keeps outstanding.
	Callers int
	// WarmOps is the unmeasured warm-up at full load, in operations, so
	// that set-up is work and not a fixed sleep: leases, caches and warm
	// containers are in place before the first measured op.
	WarmOps int
	// boot starts the system and populates it; the returned instance is
	// ready for start.
	boot func(env runEnv) (instance, error)
}

var workloads = []workloadSpec{
	{
		Name:    "kv_read_mostly",
		Why:     "95% Zipf reads through the lease cache over 4x its size: client routing and cache, codec, rpc and the lease table do the work; totalorder and durability do little",
		Callers: callers,
		WarmOps: 4000,
		boot:    bootKVReadMostly,
	},
	{
		Name:    "kv_write_hot",
		Why:     "writes only, 70% on 16 contended counters: batcher, SMR round, totalorder, peer rpc and WAL group fsync carry the cost; the client cache is bypassed",
		Callers: callers,
		WarmOps: 4000,
		boot:    bootKVWriteHot,
	},
	{
		Name:    "threads_barrier",
		Why:     "the paper's model on default options: 8 cloud threads in barrier supersteps, so thread, faas, monitor wait and the unbatched replicated write dominate; no cache, no WAL",
		Callers: callers,
		WarmOps: 200,
		boot:    bootThreadsBarrier,
	},
	{
		Name:    "statefun_call",
		Why:     "request-reply to 100 stateful-function instances over durable mailboxes, 2 callers: statefun directory polling and faas-shipped drain passes dominate",
		Callers: statefunCallers,
		WarmOps: 200,
		boot:    bootStatefunCall,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
