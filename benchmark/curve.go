package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// curve.go is the open-loop diagnostic: fixed-interval arrivals at
// 25/50/75/90 % of the workload's just-measured closed-loop throughput.
// It is printed only and stays out of BENCHMARK.json: on a two-core box
// the generator competes with the system for the cores, which raised
// CPU per operation by a third in the prototype and let p50 wander
// between identical runs. It waits for a box with cores to spare.

const (
	curveClosedSeconds = 6
	curveStepSeconds   = 8
	curveInFlightCap   = 512
)

var curveLoads = []float64{0.25, 0.50, 0.75, 0.90}

// openLooper is implemented by instances whose operations are
// independent requests, so they can be issued on a schedule. conn picks
// the client connection; buf is scratch the call may fill.
type openLooper interface {
	openOp(conn int, o op, buf []byte) error
}

// curveStep is what one offered load yields.
type curveStep struct {
	offered, goodput   float64
	sent, shed, failed int64
	p50, p99, lateP99  float64
}

func runCurve(w io.Writer, spec workloadSpec, seed int64) int {
	inst, rec, _, err := setUp(spec, runEnv{seed: seed})
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 1
	}
	defer inst.close()
	ol, ok := inst.(openLooper)
	if !ok {
		inst.stop()
		fmt.Fprintf(w, "benchmark: %s has no arrival process to open: its callers wait for each other\n", spec.Name)
		return 2
	}
	bounds := observe(rec, curveClosedSeconds*time.Second, slicesPerWindow)
	inst.stop()
	closed := steady(sliceStats(rec, bounds).perSlice["ops_per_s"], higher)
	fmt.Fprintf(w, "== curve %s  seed=%d  closed-loop %.1f ops/s with %d callers over %ds\n",
		spec.Name, seed, closed, spec.Callers, curveClosedSeconds)
	fmt.Fprintf(w, "   open loop: one pacer per connection (%d), %ds per step, in-flight capped at %d, latency from the due time\n",
		clientConns, curveStepSeconds, curveInFlightCap)
	fmt.Fprintf(w, "   %6s %10s %10s %8s %8s %8s %12s %12s %14s\n",
		"load", "offered/s", "goodput/s", "sent", "shed", "failed", "p50_us", "p99_us", "late_p99_us")
	for _, load := range curveLoads {
		st, err := openLoopStep(ol, spec.Name, seed, closed*load)
		if err != nil {
			fmt.Fprintf(w, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "   %5.0f%% %10.1f %10.1f %8d %8d %8d %12.1f %12.1f %14.1f\n",
			100*load, st.offered, st.goodput, st.sent, st.shed, st.failed, st.p50, st.p99, st.lateP99)
	}
	if err := inst.check(rec); err != nil {
		fmt.Fprintf(w, "benchmark: correctness check violated: %v\n", err)
		return 1
	}
	return 0
}

// openLoopStep offers rate operations per second for curveStepSeconds. A
// request that finds the in-flight cap reached is shed and counts as a
// failure; latency runs from the instant the request was due, so a stall
// charges the requests queued behind it.
func openLoopStep(ol openLooper, workload string, seed int64, rate float64) (curveStep, error) {
	interval := time.Duration(float64(time.Second) * float64(clientConns) / rate)
	slots := make(chan []byte, curveInFlightCap)
	for i := 0; i < curveInFlightCap; i++ {
		slots <- make([]byte, writeValueLen)
	}
	var (
		mu           sync.Mutex
		lats, lates  []float64
		sent, shed   atomic.Int64
		failed, good atomic.Int64
		inflight     sync.WaitGroup
		pacers       sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(curveStepSeconds * time.Second)
	for conn := 0; conn < clientConns; conn++ {
		gen, err := newOpGen(workload, seed, conn)
		if err != nil {
			return curveStep{}, err
		}
		pacers.Add(1)
		go func(conn int) {
			defer pacers.Done()
			var myLates []float64
			// Pacers are offset so the connections do not fire together.
			first := start.Add(interval * time.Duration(conn) / clientConns)
			for k := 0; ; k++ {
				due := first.Add(interval * time.Duration(k))
				if !due.Before(end) {
					break
				}
				time.Sleep(time.Until(due))
				myLates = append(myLates, float64(time.Since(due))/1e3)
				o := gen.next()
				sent.Add(1)
				select {
				case buf := <-slots:
					inflight.Add(1)
					go func() {
						defer inflight.Done()
						err := ol.openOp(conn, o, buf)
						lat := float64(time.Since(due)) / 1e3
						slots <- buf
						if err != nil {
							failed.Add(1)
							return
						}
						good.Add(1)
						mu.Lock()
						lats = append(lats, lat)
						mu.Unlock()
					}()
				default:
					shed.Add(1)
				}
			}
			mu.Lock()
			lates = append(lates, myLates...)
			mu.Unlock()
		}(conn)
	}
	pacers.Wait()
	inflight.Wait()
	sort.Float64s(lats)
	sort.Float64s(lates)
	return curveStep{
		offered: rate,
		goodput: float64(good.Load()) / curveStepSeconds,
		sent:    sent.Load(), shed: shed.Load(), failed: failed.Load() + shed.Load(),
		p50: percentile(lats, 0.50), p99: percentile(lats, 0.99), lateP99: percentile(lates, 0.99),
	}, nil
}
