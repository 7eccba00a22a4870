package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runEnv is what a workload needs to boot: the seed its operations are
// generated from and, on a traced run, the probes to thread through the
// program's existing option fields.
type runEnv struct {
	seed  int64
	trace *tracer // nil on a gated run
}

// instance is one booted, populated system under test.
type instance interface {
	// start launches the closed-loop callers; they record every
	// operation into rec until stop.
	start(rec *recorder)
	// stop ends the load and returns once every caller has.
	stop()
	// check runs the workload's correctness check after stop, given the
	// operations counted over the instance's whole life.
	check(rec *recorder) error
	close()
}

// sample is one completed operation: when it ended (ns after the
// recorder's epoch) and how long it took. Failed operations carry lat -1.
type sample struct {
	end int64
	lat int64
}

// lane is one caller's private log; only that caller appends to it, and
// it is read after stop.
type lane struct {
	samples []sample
	_       [40]byte // keep lanes of different callers off one cache line
}

// recorder collects every operation of one instance.
type recorder struct {
	epoch time.Time
	lanes []lane
	done  atomic.Int64 // operations completed, ok or not

	mu        sync.Mutex
	failKinds map[string]int
}

func newRecorder(lanes int) *recorder {
	r := &recorder{epoch: time.Now(), lanes: make([]lane, lanes), failKinds: make(map[string]int)}
	for i := range r.lanes {
		r.lanes[i].samples = make([]sample, 0, 1<<15)
	}
	return r
}

// record logs one operation that began at start and has just ended. A
// failed operation is counted, logged once per kind, and never retried
// by the harness nor dropped from the denominator.
func (r *recorder) record(lane int, start time.Time, err error) {
	now := time.Now()
	s := sample{end: int64(now.Sub(r.epoch)), lat: int64(now.Sub(start))}
	if err != nil {
		s.lat = -1
		r.fail(err)
	}
	l := &r.lanes[lane]
	l.samples = append(l.samples, s)
	r.done.Add(1)
}

func (r *recorder) fail(err error) {
	kind := err.Error()
	if len(kind) > 160 {
		kind = kind[:160]
	}
	r.mu.Lock()
	r.failKinds[kind]++
	first := r.failKinds[kind] == 1
	r.mu.Unlock()
	if first {
		fmt.Fprintf(os.Stderr, "benchmark: operation failed (logged once per kind): %s\n", kind)
	}
}

// totals counts the instance's operations over its whole life.
func (r *recorder) totals() (ok, failed int64) {
	for i := range r.lanes {
		for _, s := range r.lanes[i].samples {
			if s.lat < 0 {
				failed++
			} else {
				ok++
			}
		}
	}
	return ok, failed
}

// waitDone blocks until n operations have completed.
func (r *recorder) waitDone(ctx context.Context, n int64) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for r.done.Load() < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("warm-up reached %d of %d operations: %w", r.done.Load(), n, ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// boundary is the process state at the edge of a slice.
type boundary struct {
	at      int64 // ns after the recorder's epoch
	cpu     time.Duration
	mallocs uint64
	pauseNs uint64
	numGC   uint32
}

func takeBoundary(epoch time.Time) boundary {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return boundary{
		at:      int64(time.Since(epoch)),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
		numGC:   ms.NumGC,
	}
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// observe sleeps through a window of the given length, taking a boundary
// at its start, at its end and between its slices.
func observe(rec *recorder, window time.Duration, slices int) []boundary {
	start := time.Now()
	bounds := make([]boundary, 0, slices+1)
	for k := 0; k <= slices; k++ {
		time.Sleep(time.Until(start.Add(window * time.Duration(k) / time.Duration(slices))))
		bounds = append(bounds, takeBoundary(rec.epoch))
	}
	return bounds
}

// windowStats is what one measured window yields.
type windowStats struct {
	attempted, failed int
	samples           int // successful operations inside the window
	perSlice          map[string][]float64
	gcPauseMsPerS     float64
	gcCyclesPerS      float64
}

// sliceStats cuts the recorder's samples at the boundaries and computes
// each slice's throughput, latency percentiles, CPU and allocations per
// successful operation.
func sliceStats(rec *recorder, bounds []boundary) windowStats {
	n := len(bounds) - 1
	lats := make([][]float64, n)
	failed := make([]int, n)
	for i := range rec.lanes {
		for _, s := range rec.lanes[i].samples {
			if s.end < bounds[0].at || s.end >= bounds[n].at {
				continue
			}
			k := sort.Search(n, func(k int) bool { return s.end < bounds[k+1].at })
			if s.lat < 0 {
				failed[k]++
				continue
			}
			lats[k] = append(lats[k], float64(s.lat)/1e3)
		}
	}
	ws := windowStats{perSlice: make(map[string][]float64)}
	for k := 0; k < n; k++ {
		ok := len(lats[k])
		ws.attempted += ok + failed[k]
		ws.failed += failed[k]
		ws.samples += ok
		if ok == 0 {
			continue
		}
		sort.Float64s(lats[k])
		secs := float64(bounds[k+1].at-bounds[k].at) / 1e9
		cpuUs := float64(bounds[k+1].cpu-bounds[k].cpu) / 1e3
		add := func(name string, v float64) { ws.perSlice[name] = append(ws.perSlice[name], v) }
		add("ops_per_s", float64(ok)/secs)
		add("op_p50_us", percentile(lats[k], 0.50))
		add("op_p99_us", percentile(lats[k], 0.99))
		add("cpu_us_per_op", cpuUs/float64(ok))
		add("allocs_per_op", float64(bounds[k+1].mallocs-bounds[k].mallocs)/float64(ok))
	}
	secs := float64(bounds[n].at-bounds[0].at) / 1e9
	ws.gcPauseMsPerS = float64(bounds[n].pauseNs-bounds[0].pauseNs) / 1e6 / secs
	ws.gcCyclesPerS = float64(bounds[n].numGC-bounds[0].numGC) / secs
	return ws
}

// liveHeapMB forces a collection and returns what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// opTimeout bounds a single operation so that a wedged call fails the
// run instead of hanging it past the driver's limit.
const opTimeout = 30 * time.Second

// callerLoops is the part of an instance whose load is n goroutines
// issuing operations under one context until told to stop.
type callerLoops struct {
	n       int
	ctx     context.Context
	cancel  context.CancelFunc
	stopped atomic.Bool
	wg      sync.WaitGroup
}

func newCallerLoops(n int) *callerLoops {
	l := &callerLoops{n: n}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	return l
}

// run starts one goroutine per caller; each calls op until stop.
func (l *callerLoops) run(op func(caller int)) {
	for c := 0; c < l.n; c++ {
		l.wg.Add(1)
		go func(c int) {
			defer l.wg.Done()
			for !l.stopped.Load() {
				op(c)
			}
		}(c)
	}
}

// stop lets every caller finish the operation it is in; one that is
// wedged has its context cancelled after opTimeout.
func (l *callerLoops) stop() {
	if l.stopped.Swap(true) {
		return
	}
	wedged := time.AfterFunc(opTimeout, l.cancel)
	l.wg.Wait()
	wedged.Stop()
}

// eachCaller runs f once per caller index, concurrently, and returns the
// first error: how set-up shares populating among the callers.
func eachCaller(f func(caller int) error) error {
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) { errs <- f(c) }(c)
	}
	var first error
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setUp boots and populates one instance, starts its load and returns
// once the warm-up operations have completed: the moment the first
// measured operation could be sent.
func setUp(w workloadSpec, env runEnv) (instance, *recorder, time.Duration, error) {
	begin := time.Now()
	inst, err := w.boot(env)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: boot: %w", w.Name, err)
	}
	rec := newRecorder(callers)
	inst.start(rec)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := rec.waitDone(ctx, int64(w.WarmOps)); err != nil {
		inst.stop()
		inst.close()
		return nil, nil, 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	return inst, rec, time.Since(begin), nil
}

// measured is one or more windows, each over its own running instance,
// with the instances' correctness verdict.
type measured struct {
	stats windowStats
	// liveHeap holds one sample per window: the heap that survives a
	// forced collection once the window's load has stopped.
	liveHeap []float64
	checkErr error
}

// measure observes a window over an instance whose load is running and
// finishes the instance.
func measure(inst instance, rec *recorder, window time.Duration, slices int) measured {
	return finish(inst, rec, observe(rec, window, slices))
}

// finish stops the load, takes the live heap, cuts the samples at the
// observed boundaries, runs the correctness check and closes the instance.
func finish(inst instance, rec *recorder, bounds []boundary) measured {
	inst.stop()
	m := measured{liveHeap: []float64{liveHeapMB()}}
	m.stats = sliceStats(rec, bounds)
	m.checkErr = inst.check(rec)
	inst.close()
	return m
}

// add appends another window's slices, counts and verdict to m.
func (m *measured) add(o measured) {
	if m.stats.perSlice == nil {
		m.stats.perSlice = make(map[string][]float64)
	}
	for name, vs := range o.stats.perSlice {
		m.stats.perSlice[name] = append(m.stats.perSlice[name], vs...)
	}
	m.stats.attempted += o.stats.attempted
	m.stats.failed += o.stats.failed
	m.stats.samples += o.stats.samples
	m.liveHeap = append(m.liveHeap, o.liveHeap...)
	if m.checkErr == nil {
		m.checkErr = o.checkErr
	}
}

// runGated is one untraced run of one workload. The measured time is
// split evenly over `windows` instances, each set up afresh and observed
// for its share in slicesPerWindow slices: the slices of one run then span
// twice the time a single window would, so a slow stretch of the machine
// that lasts ten seconds spoils some of them, not all. setup_s is the
// median over the set-ups, every per-slice metric the steady mean of all
// slices.
func runGated(w workloadSpec, seed int64, seconds float64, windows int) (workloadResult, error) {
	began := time.Now()
	res := newResult(w, seed, seconds, false)
	window := time.Duration(seconds / float64(windows) * float64(time.Second))
	var setups []float64
	var m measured
	for i := 0; i < windows; i++ {
		runtime.GC()
		inst, rec, took, err := setUp(w, runEnv{seed: seed})
		if err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
		m.add(measure(inst, rec, window, slicesPerWindow))
	}
	res.fill(m)
	res.set("setup_s", "s", median(setups), setups, len(setups))
	res.WallS = time.Since(began).Seconds()
	return res, nil
}
