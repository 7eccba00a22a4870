package crucial

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// The stateful-functions throughput benchmarks: sustained message
// processing across many durable instances (DESIGN.md §5i). One
// benchmark op is one message pushed, dispatched, handled, and
// committed, so ns/op inverts to sustained msgs/sec; the final
// per-instance drain calls (one replying message each, included in the
// measurement) guarantee every pushed message was actually processed,
// not merely enqueued. Run with `go test -run '^$' -bench
// BenchmarkStatefun -benchtime 3000x -benchmem .`; the gated
// request-reply workload is the composed benchmark's statefun_call
// (benchmark/).

// benchCountMsg is the benchmark handler's state and reply body.
type benchCountMsg struct {
	N int64
}

// benchmarkStatefun pushes b.N messages round-robin across the given
// number of function instances and waits until every one is handled.
func benchmarkStatefun(b *testing.B, instances int, durable bool) {
	opts := Options{
		DSONodes: 4,
		Statefun: StatefunOptions{InProcess: true, Workers: 16},
	}
	if durable {
		opts.Durability = DefaultDurabilityPolicy()
	}
	rt, err := NewLocalRuntime(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = rt.Close() }()
	fn, err := rt.DeployStatefulFunction("bcount", func(c *FnCtx, m FnMsg) error {
		var st benchCountMsg
		if _, err := c.State(&st); err != nil {
			return err
		}
		switch m.Name() {
		case "add":
			st.N++
			return c.SetState(&st)
		case "get":
			return c.Reply(st)
		default:
			return fmt.Errorf("bench: unknown message %q", m.Name())
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	workers := instances
	if workers > 64 {
		workers = 64
	}
	b.ResetTimer()
	// Phase 1: fire-and-forget adds. Worker w owns instances w, w+W,
	// w+2W, ... so no two workers contend on one sender stream.
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < workers; w++ {
		share := b.N / workers
		if w < b.N%workers {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			for k := 0; k < share; k++ {
				id := fmt.Sprintf("i%d", (w+k*workers)%instances)
				if err := fn.Send(ctx, id, "add", nil); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(w, share)
	}
	wg.Wait()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	// Phase 2: drain barrier. Mailboxes are FIFO, so a reply to a "get"
	// pushed after the adds proves the instance's adds are all applied.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < instances; i += workers {
				var st benchCountMsg
				if err := fn.Call(ctx, fmt.Sprintf("i%d", i), "get", nil, &st); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

func BenchmarkStatefun100(b *testing.B)         { benchmarkStatefun(b, 100, false) }
func BenchmarkStatefun100Durable(b *testing.B)  { benchmarkStatefun(b, 100, true) }
func BenchmarkStatefun1000(b *testing.B)        { benchmarkStatefun(b, 1000, false) }
func BenchmarkStatefun1000Durable(b *testing.B) { benchmarkStatefun(b, 1000, true) }
