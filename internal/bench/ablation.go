package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"crucial"
	"crucial/internal/client"
	"crucial/internal/cluster"
	"crucial/internal/netsim"
)

// Ablations isolate the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//
//   - ablation-shipping: method-call shipping (the paper's Section 4.2)
//     versus the data-shipping anti-pattern it replaces.
//   - ablation-blocking: server-side blocking synchronization versus
//     storage polling, on identical in-memory infrastructure.

// Ablation experiment ids.
const (
	ExpAblationShipping = "ablation-shipping"
	ExpAblationBlocking = "ablation-blocking"
)

// AblationShipping compares aggregating a shared vector by shipping the
// method (AddAll executes on the owner) against shipping the data
// (optimistic read-modify-write with CompareAndSet). Under contention the
// data-shipping loop pays transfers and retries; the shipped method pays
// one message.
func AblationShipping(w io.Writer, o Options) error {
	o = o.withDefaults()
	profile := netsim.AWS2019(o.Scale)
	// Contention is kept moderate: the optimistic data-shipping loop's
	// retry count grows quadratically with workers, which is the point —
	// but it must still terminate in benchmark time.
	workers := pick(o, 4, 10)
	updates := pick(o, 6, 12) // per worker
	dims := pick(o, 64, 128)

	clu, err := cluster.StartLocal(cluster.Options{Nodes: 2, Profile: profile})
	if err != nil {
		return err
	}
	defer func() { _ = clu.Close() }()
	clients := make([]*client.Client, workers)
	for i := range clients {
		if clients[i], err = clu.NewClient(); err != nil {
			return err
		}
		defer func(c *client.Client) { _ = c.Close() }(clients[i])
	}
	ctx := context.Background()
	delta := make([]float64, dims)
	for i := range delta {
		delta[i] = 1
	}

	// Method shipping: AddAll executes on the owning node.
	shipped := crucial.NewAtomicDoubleArray("abl/shipped", dims)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			arr := crucial.NewAtomicDoubleArray("abl/shipped", dims)
			arr.H.BindDSO(clients[tid])
			for u := 0; u < updates; u++ {
				if err := arr.AddAll(ctx, delta); err != nil {
					errs[tid] = err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	shippedTime := time.Since(start)
	sum, err := func() (float64, error) {
		shipped.H.BindDSO(clients[0])
		all, err := shipped.GetAll(ctx)
		if err != nil {
			return 0, err
		}
		return all[0], nil
	}()
	if err != nil {
		return err
	}
	if int(sum) != workers*updates {
		return fmt.Errorf("bench: shipped aggregate = %v, want %d", sum, workers*updates)
	}

	// Data shipping: fetch the vector, add locally, CAS it back; retry on
	// contention — the client-side AllReduce the DSO layer obviates.
	seed := crucial.NewAtomicReference[[]float64]("abl/data")
	seed.H.BindDSO(clients[0])
	if err := seed.Set(ctx, make([]float64, dims)); err != nil {
		return err
	}
	var retries int64
	var retryMu sync.Mutex
	start = time.Now()
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ref := crucial.NewAtomicReference[[]float64]("abl/data")
			ref.H.BindDSO(clients[tid])
			for u := 0; u < updates; u++ {
				for {
					cur, ok, err := ref.Get(ctx)
					if err != nil {
						errs[tid] = err
						return
					}
					if !ok {
						errs[tid] = fmt.Errorf("bench: reference not initialized")
						return
					}
					next := make([]float64, dims)
					copy(next, cur)
					for i := range next {
						next[i] += delta[i]
					}
					swapped, err := ref.CompareAndSet(ctx, cur, next)
					if err != nil {
						errs[tid] = err
						return
					}
					if swapped {
						break
					}
					retryMu.Lock()
					retries++
					retryMu.Unlock()
				}
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	dataTime := time.Since(start)

	totalUpdates := workers * updates
	title(w, "Ablation: method-call shipping vs data shipping (shared vector aggregate)")
	row(w, "%-18s %12s %14s %12s", "STRATEGY", "TIME (ms)", "MSGS/UPDATE", "RETRIES")
	row(w, "%-18s %12.0f %14.1f %12d", "method shipping",
		float64(modeled(shippedTime, o.Scale).Milliseconds()), 1.0, 0)
	row(w, "%-18s %12.0f %14.1f %12d", "data shipping",
		float64(modeled(dataTime, o.Scale).Milliseconds()),
		float64(2*(int64(totalUpdates)+retries))/float64(totalUpdates), retries)
	note(w, "shipping the method costs one message per update and never conflicts;")
	note(w, "shipping the data pays a round trip to read, one to write, and retries under")
	note(w, "contention (Section 4.2: O(N) vs O(N^2) for N-way aggregation)")
	return nil
}

// AblationBlocking compares the Crucial barrier (calls block server side,
// wake-ups are pushed) against a polling barrier built on the very same
// grid used as a KV store — isolating blocking-vs-polling from all other
// variables.
func AblationBlocking(w io.Writer, o Options) error {
	o = o.withDefaults()
	if !o.Quick && o.Scale < 0.25 {
		o.Scale = 0.25
	}
	profile := netsim.AWS2019(o.Scale)
	n := pick(o, 4, 40)
	rounds := pick(o, 2, 5)
	step := profile.Scaled(200 * time.Millisecond)
	pollEvery := profile.Scaled(20 * time.Millisecond)

	clu, err := cluster.StartLocal(cluster.Options{Nodes: 2, Profile: profile})
	if err != nil {
		return err
	}
	defer func() { _ = clu.Close() }()
	clients := make([]*client.Client, 8)
	for i := range clients {
		if clients[i], err = clu.NewClient(); err != nil {
			return err
		}
		defer func(c *client.Client) { _ = c.Close() }(clients[i])
	}
	ctx := context.Background()

	// Blocking barrier.
	blockingWait, err := lockstep(n, rounds, step, func(tid int) roundFn {
		b := crucial.NewCyclicBarrier("ablb/barrier", n)
		b.H.BindDSO(clients[tid%len(clients)])
		return func(int) error {
			_, err := b.Await(ctx)
			return err
		}
	})
	if err != nil {
		return err
	}

	// Polling barrier on the same grid: INCR an arrival counter, poll a
	// round counter cell until the last arrival advances it.
	arrivals := crucial.NewAtomicLong("ablb/arrivals")
	roundCtr := crucial.NewAtomicLong("ablb/round")
	arrivals.H.BindDSO(clients[0])
	roundCtr.H.BindDSO(clients[0])
	pollingWait, err := lockstep(n, rounds, step, func(tid int) roundFn {
		arr := crucial.NewAtomicLong("ablb/arrivals")
		rnd := crucial.NewAtomicLong("ablb/round")
		arr.H.BindDSO(clients[tid%len(clients)])
		rnd.H.BindDSO(clients[tid%len(clients)])
		return func(round int) error {
			v, err := arr.AddAndGet(ctx, 1)
			if err != nil {
				return err
			}
			if v == int64(n)*(int64(round)+1) {
				// Last arrival of this round advances the round counter.
				if _, err := rnd.IncrementAndGet(ctx); err != nil {
					return err
				}
				return nil
			}
			for {
				cur, err := rnd.Get(ctx)
				if err != nil {
					return err
				}
				if cur > int64(round) {
					return nil
				}
				if err := netsim.Sleep(ctx, pollEvery); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		return err
	}

	title(w, "Ablation: server-side blocking vs storage polling (barrier on one grid)")
	row(w, "%-22s %16s", "SYNCHRONIZATION", "AVG WAIT (ms)")
	row(w, "%-22s %16.1f", "blocking (Crucial)",
		float64(modeled(blockingWait, o.Scale).Milliseconds()))
	row(w, "%-22s %16.1f", "polling (same grid)",
		float64(modeled(pollingWait, o.Scale).Milliseconds()))
	note(w, "same store, same network: the gap is purely the design choice of suspending")
	note(w, "calls on the server (wait/notify) instead of polling — why Table 1's")
	note(w, "synchronization objects exist at all")
	return nil
}
