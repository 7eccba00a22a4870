package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crucial"
)

// Shape of threads_barrier: rounds of 8 cloud threads, each running
// barrierSteps supersteps of 4 AddAndGet on four shared persistent
// AtomicLongs, one GetAll of a persistent 100-element array, and one
// CyclicBarrier.Await. One operation is one superstep as thread 0 sees
// it: 48 DSO calls and a barrier generation.
const (
	barrierSteps    = 200
	barrierAccums   = 4
	barrierArrayLen = 100
)

// barrierRun is the state the cloud threads of one instance share with
// the harness. Threads run in this process (the FaaS platform is
// in-process) but are shipped gob-encoded, so they find it by id.
type barrierRun struct {
	rec *recorder
	// arrived counts arrivals per superstep of the current round; the
	// harness replaces it between rounds, when no thread is running.
	arrived []atomic.Int32

	mu        sync.Mutex
	violation error
}

var (
	barrierRuns   sync.Map // int64 → *barrierRun
	barrierRunSeq atomic.Int64
)

func (r *barrierRun) violate(format string, args ...any) {
	r.mu.Lock()
	if r.violation == nil {
		r.violation = fmt.Errorf(format, args...)
	}
	r.mu.Unlock()
}

// superstepper is the Runnable one cloud thread executes.
type superstepper struct {
	RunID int64
	Index int
	Steps int
	Acc   []*crucial.AtomicLong
	Arr   *crucial.AtomicDoubleArray
	Bar   *crucial.CyclicBarrier
}

func (s *superstepper) Run(tc *crucial.TC) error {
	v, ok := barrierRuns.Load(s.RunID)
	if !ok {
		return fmt.Errorf("superstepper: unknown run %d", s.RunID)
	}
	run := v.(*barrierRun)
	ctx := tc.Context()
	for step := 0; step < s.Steps; step++ {
		begin := time.Now()
		err := s.step(ctx, run, step)
		if s.Index == 0 {
			run.rec.record(0, begin, err)
		}
		if err != nil {
			// Break the barrier so the other threads fail too instead of
			// waiting for a party that will not come.
			_ = s.Bar.Reset(ctx)
			return err
		}
	}
	return nil
}

func (s *superstepper) step(ctx context.Context, run *barrierRun, step int) error {
	for _, a := range s.Acc {
		if _, err := a.AddAndGet(ctx, 1); err != nil {
			return err
		}
	}
	all, err := s.Arr.GetAll(ctx)
	if err != nil {
		return err
	}
	if len(all) != barrierArrayLen {
		run.violate("GetAll returned %d elements, want %d", len(all), barrierArrayLen)
	}
	run.arrived[step].Add(1)
	if _, err := s.Bar.Await(ctx); err != nil {
		return err
	}
	// Nobody may pass generation g before all parties arrived at it.
	if n := run.arrived[step].Load(); n != callers {
		run.violate("thread %d left superstep %d after %d of %d arrivals", s.Index, step, n, callers)
	}
	return nil
}

// barrierInstance runs threads_barrier on default options: every
// optional layer off, the classic path users get today.
type barrierInstance struct {
	rt    *crucial.Runtime
	trace *tracer
	id    int64
	run   *barrierRun
	acc   []*crucial.AtomicLong

	stopped    atomic.Bool
	done       chan struct{}
	okRounds   int64
	failRounds int64
}

func bootThreadsBarrier(env runEnv) (instance, error) {
	crucial.Register(&superstepper{})
	opts := crucial.Options{DSONodes: 3, RF: 2}
	if env.trace != nil {
		opts.Telemetry = env.trace.tel
	}
	rt, err := crucial.NewLocalRuntime(opts)
	if err != nil {
		return nil, err
	}
	b := &barrierInstance{rt: rt, trace: env.trace, id: barrierRunSeq.Add(1)}
	b.run = &barrierRun{}
	barrierRuns.Store(b.id, b.run)

	// Populate: materialize the persistent objects from the master
	// thread, and have the containers warm.
	ctx := context.Background()
	for i := 0; i < barrierAccums; i++ {
		a := crucial.NewAtomicLong(fmt.Sprintf("bench/acc/%d", i), crucial.WithPersist())
		b.acc = append(b.acc, a)
	}
	arr := crucial.NewAtomicDoubleArray("bench/array", barrierArrayLen, crucial.WithPersist())
	rt.Bind(b.acc, arr)
	for _, a := range b.acc {
		if err := a.Set(ctx, 0); err != nil {
			b.close()
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	if err := arr.FillZero(ctx); err != nil {
		b.close()
		return nil, fmt.Errorf("populate: %w", err)
	}
	if err := rt.Prewarm(callers); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *barrierInstance) runnables(steps int) []crucial.Runnable {
	rs := make([]crucial.Runnable, callers)
	for i := range rs {
		s := &superstepper{
			RunID: b.id, Index: i, Steps: steps,
			Arr: crucial.NewAtomicDoubleArray("bench/array", barrierArrayLen, crucial.WithPersist()),
			Bar: crucial.NewCyclicBarrier("bench/barrier", callers),
		}
		for a := 0; a < barrierAccums; a++ {
			s.Acc = append(s.Acc, crucial.NewAtomicLong(fmt.Sprintf("bench/acc/%d", a), crucial.WithPersist()))
		}
		rs[i] = s
	}
	return rs
}

func (b *barrierInstance) start(rec *recorder) {
	b.run.rec = rec
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		for !b.stopped.Load() {
			b.run.arrived = make([]atomic.Int32, barrierSteps)
			if err := crucial.JoinAll(b.rt.SpawnAll(b.runnables(barrierSteps)...)); err != nil {
				b.failRounds++
				rec.fail(err)
			} else {
				b.okRounds++
			}
			if b.trace != nil && !b.stopped.Load() {
				// Round turnover alone: spawn and join 8 threads that do
				// nothing, timed as a benchmark span.
				sp := b.trace.begin("thread.spawn_join")
				err := crucial.JoinAll(b.rt.SpawnAll(b.runnables(0)...))
				sp.end()
				if err != nil {
					rec.fail(err)
				}
			}
		}
	}()
}

func (b *barrierInstance) stop() {
	if b.stopped.Swap(true) || b.done == nil {
		return
	}
	<-b.done
}

// check compares the accumulators with the supersteps run and reports
// any barrier or read violation the threads saw.
func (b *barrierInstance) check(*recorder) error {
	b.run.mu.Lock()
	violation := b.run.violation
	b.run.mu.Unlock()
	if violation != nil {
		return violation
	}
	var sum int64
	for _, a := range b.acc {
		v, err := a.Get(context.Background())
		if err != nil {
			return fmt.Errorf("read accumulator: %w", err)
		}
		sum += v
	}
	perRound := int64(callers * barrierSteps * barrierAccums)
	if lo, hi := b.okRounds*perRound, (b.okRounds+b.failRounds)*perRound; sum < lo || sum > hi {
		return fmt.Errorf("accumulators total %d, want within [%d, %d] (%d rounds ok, %d failed)",
			sum, lo, hi, b.okRounds, b.failRounds)
	}
	if b.okRounds == 0 {
		return errors.New("no round of supersteps completed")
	}
	return nil
}

// mix derives the calls of all eight threads from thread 0's supersteps.
func (b *barrierInstance) mix() (reads, writes int64) {
	steps := b.run.rec.done.Load()
	return steps * callers, steps * callers * barrierAccums
}

func (b *barrierInstance) close() {
	b.stop()
	_ = b.rt.Close() // tear-down
	barrierRuns.Delete(b.id)
}
