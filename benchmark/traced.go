package main

import (
	"fmt"
	"time"

	"crucial/internal/telemetry"
	"crucial/internal/telemetry/analysis"
)

// traced.go is the traced run: per-layer numbers that are never mixed
// into the gated ones. One invocation measures an untraced reference
// window (a third of -seconds) and a traced window (the rest) on fresh
// instances, so trace.overhead_ratio compares like with like, then runs
// the sequential probes.

// mixCounter is implemented by instances that can split their operations
// into reads and writes of shared objects, for the per-read and
// per-write ratios. Both counts are cumulative and safe to read while the
// load runs.
type mixCounter interface {
	mix() (reads, writes int64)
}

// counterState is everything read at both edges of the traced window.
type counterState struct {
	tel           telemetry.Snapshot
	links         [linkClasses]linkTotals
	store         storeTotals
	reads, writes int64
}

func takeCounters(tr *tracer, inst instance) counterState {
	cs := counterState{tel: tr.tel.Snapshot(), links: tr.links(), store: tr.storeTotals()}
	if mc, ok := inst.(mixCounter); ok {
		cs.reads, cs.writes = mc.mix()
	}
	return cs
}

// div is a ratio that reads 0 when its denominator is 0, which is what a
// per-layer metric reports on a workload it does not apply to.
func div(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func runTraced(w workloadSpec, seed int64, seconds float64) (workloadResult, error) {
	began := time.Now()
	res := newResult(w, seed, seconds, true)
	refWindow := time.Duration(seconds / 3 * float64(time.Second))
	tracedWindow := time.Duration(seconds * 2 / 3 * float64(time.Second))

	// Untraced reference: throughput and GC figures.
	inst, rec, _, err := setUp(w, runEnv{seed: seed})
	if err != nil {
		return res, err
	}
	ref := measure(inst, rec, refWindow, 2)
	if ref.checkErr != nil {
		res.fill(ref)
		return res, nil
	}
	refOps := steady(ref.stats.perSlice["ops_per_s"], higher)

	// Traced window.
	tr := newTracer()
	inst, rec, _, err = setUp(w, runEnv{seed: seed, trace: tr})
	if err != nil {
		return res, err
	}
	before := takeCounters(tr, inst)
	bounds := observe(rec, tracedWindow, slicesPerWindow)
	after := takeCounters(tr, inst)
	programSpans := tr.tel.Tracer().Spans()
	m := finish(inst, rec, bounds)
	res.fill(m)
	delete(res.Metrics, failRatio)
	for _, spec := range endToEnd {
		delete(res.Metrics, spec.Name) // traced timings are not end-to-end figures
	}

	ops := float64(m.stats.samples)
	tracedOps := steady(m.stats.perSlice["ops_per_s"], higher)
	secs := float64(bounds[len(bounds)-1].at-bounds[0].at) / 1e9
	set := func(name string, v float64) {
		spec, _ := findMetric(perLayer, name)
		res.set(name, spec.Unit, v, nil, 0)
	}
	counter := func(name string) float64 {
		return float64(after.tel.Counters[name] - before.tel.Counters[name])
	}
	histMeanUs := func(name string) float64 {
		a, b := after.tel.Histograms[name], before.tel.Histograms[name]
		return div(float64(a.Sum-b.Sum)/1e3, float64(a.Count-b.Count))
	}
	reads := float64(after.reads - before.reads)
	writes := float64(after.writes - before.writes)

	// rpc: the counting transport (kv workloads only; the runtime of the
	// other two builds its own cluster and offers no transport seam).
	var frames [linkClasses]float64
	var bytes, busyUs float64
	for k := 0; k < linkClasses; k++ {
		frames[k] = float64(after.links[k].frames - before.links[k].frames)
		bytes += float64(after.links[k].bytes - before.links[k].bytes)
		busyUs += float64(after.links[k].busy-before.links[k].busy) / 1e3
	}
	set("rpc.client_frames_per_op", div(frames[linkClient], ops))
	set("rpc.peer_frames_per_op", div(frames[linkPeer], ops))
	set("rpc.cache_frames_per_op", div(frames[linkCache], ops))
	set("rpc.bytes_per_op", div(bytes, ops))
	set("rpc.write_busy_us_per_op", div(busyUs, ops))

	// client and server: deltas of the registry counters.
	set("client.calls_per_op", div(counter(telemetry.MetClientCalls), ops))
	set("client.reroutes_per_op", div(counter(telemetry.MetClientReroutes), ops))
	hits, misses := counter(telemetry.MetCacheHits), counter(telemetry.MetCacheMisses)
	set("client.cache_hit_ratio", div(hits, hits+misses))
	set("client.cache_invalidations_per_write", div(counter(telemetry.MetCacheInvalidations), writes))
	set("server.smr_rounds_per_write", div(counter(telemetry.MetServerSMRRounds), writes))
	bs, bsBefore := after.tel.Histograms[telemetry.HistServerBatchSize], before.tel.Histograms[telemetry.HistServerBatchSize]
	// A size histogram stores value v as v microseconds.
	set("server.batch_size_mean", div(float64(bs.Sum-bsBefore.Sum)/1e3, float64(bs.Count-bsBefore.Count)))
	set("server.lease_grants_per_read", div(counter(telemetry.MetServerLeaseGrants), reads))
	set("server.lease_revokes_per_write", div(counter(telemetry.MetServerLeaseRevokes), writes))
	unordered := counter(telemetry.MetServerLocalReads) + counter(telemetry.MetServerFollowerReads)
	set("server.local_read_ratio", div(unordered, reads-hits))
	set("server.exec_us", histMeanUs(telemetry.HistServerExec))
	set("server.monitor_wait_us", histMeanUs(telemetry.HistServerMonitorWait))

	// durability: WAL counters, plus the counting store where there is one.
	set("durability.appends_per_fsync", div(counter(telemetry.MetWALAppends), counter(telemetry.MetWALFsyncs)))
	set("durability.wal_bytes_per_write", div(counter(telemetry.MetWALBytes), writes))
	if tr.store != nil {
		set("durability.puts_per_op", div(float64(after.store.puts-before.store.puts), ops))
		set("durability.put_busy_us_per_op", div(float64(after.store.putBusy-before.store.putBusy)/1e3, ops))
		set("durability.snapshot_bytes_per_s", float64(after.store.snapLen-before.store.snapLen)/secs)
	} else {
		set("durability.puts_per_op", div(counter(telemetry.MetStoragePuts), ops))
		set("durability.put_busy_us_per_op", 0)
		set("durability.snapshot_bytes_per_s", counter(telemetry.MetSnapshotBytes)/secs)
	}

	// faas, thread, statefun.
	invocations := counter(telemetry.MetFaaSInvocations)
	set("faas.invocations_per_op", div(invocations, ops))
	set("thread.spawn_join_us", median(tr.durations("thread.spawn_join", bounds[0].at, bounds[len(bounds)-1].at)))
	msgs := counter(telemetry.MetStatefunMessages)
	set("statefun.dispatches_per_msg", div(invocations, msgs))
	set("statefun.redeliveries_per_msg", div(counter(telemetry.MetStatefunRedeliveries), msgs))
	set("statefun.dups_per_msg", div(counter(telemetry.MetStatefunDups), msgs))

	// budget shares: the program's own spans through its own analysis.
	report := analysis.Analyze(programSpans)
	var shareSum float64
	for _, cat := range analysis.Categories() {
		share := div(float64(report.Categories[cat]), float64(report.Total))
		shareSum += share
		set("budget."+cat+"_share", share)
	}
	if report.Total > 0 && (shareSum < 0.95 || shareSum > 1.05) {
		res.note("budget shares sum to %.3f, a gap of %+.3f from 1", shareSum, shareSum-1)
	}
	res.note("budget shares are over the last %d program spans (%d traces)", report.Spans, report.Traces)

	set("gc.pause_ms_per_s", ref.stats.gcPauseMsPerS)
	set("gc.cycles_per_s", ref.stats.gcCyclesPerS)
	set("trace.overhead_ratio", div(tracedOps, refOps))
	res.note("untraced reference %.1f ops/s over %.1fs, traced %.1f ops/s over %.1fs, %d traced operations",
		refOps, refWindow.Seconds(), tracedOps, secs, m.stats.samples)

	probes, err := runProbes()
	if err != nil {
		return res, fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		set(name, v)
	}
	budgetLine(&res, w.Name)
	res.Spans = tr.spans
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// budgetLine sets the parts of one sequential replicated call, as probed
// layer by layer, against the matching whole-call probe; what the parts
// do not cover is budget.unexplained_us — from outside, the measurable
// form of "the parts sum to the whole".
func budgetLine(res *workloadResult, workload string) {
	get := func(name string) float64 { return res.Metrics[name].Value }
	parts := []string{"core.codec_us", "rpc.echo_us", "server.exec_us", "totalorder.multicast_us"}
	var whole string
	switch workload {
	case "kv_read_mostly", "kv_write_hot":
		parts = append(parts, "durability.append_wait_us")
		whole = "server.invoke_rf2_full_us"
	case "threads_barrier":
		whole = "server.invoke_rf2_us"
	default:
		res.set("budget.unexplained_us", "us", 0, nil, 0)
		res.note("budget line: not a DSO workload, none drawn")
		return
	}
	var sum float64
	line := "budget line:"
	for _, p := range parts {
		sum += get(p)
		line += fmt.Sprintf(" %s %.1f +", p, get(p))
	}
	unexplained := get(whole) - sum
	res.set("budget.unexplained_us", "us", unexplained, nil, 0)
	res.note("%s = %.1f us against %s %.1f us: budget.unexplained_us %.1f",
		line[:len(line)-2], sum, whole, get(whole), unexplained)
}
