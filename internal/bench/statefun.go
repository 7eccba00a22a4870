package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"crucial"
)

// ExpStatefun is the stateful-functions throughput experiment (not part
// of RunAll, like cache/reshard): sustained message processing across a
// growing instance population, with the durability tier off and on
// (DESIGN.md §5i). Each message rides the full pipeline — at-most-once
// push, dispatch, handler, atomic effect commit — and the run only
// counts messages whose effects are confirmed applied (a FIFO drain
// probe per instance closes the measurement). The microbenchmark twin
// is BenchmarkStatefun in the root package.
const ExpStatefun = "statefun"

// statefunRow is one configuration's measurement.
type statefunRow struct {
	Instances int     `json:"instances"`
	Durable   bool    `json:"durable"`
	Msgs      int     `json:"msgs"`
	Seconds   float64 `json:"seconds"`
	MsgsPerS  float64 `json:"msgs_per_sec"`
}

// Statefun runs the throughput matrix and prints one row per
// (instance count, durability) configuration.
func Statefun(w io.Writer, o Options) error {
	o = o.withDefaults()
	counts := pick(o, []int{10, 50}, []int{100, 1000, 2000})
	perInstance := pick(o, 4, 10)

	title(w, "Statefun: sustained msgs/sec vs instance count, durability off/on")
	note(w, "one msg = push + dispatch + handler + atomic commit; drain probes confirm application")
	row(w, "%10s %10s %10s %9s %12s", "INSTANCES", "DURABLE", "MSGS", "SECONDS", "MSGS/SEC")

	var rows []statefunRow
	for _, durable := range []bool{false, true} {
		for _, n := range counts {
			msgs := n * perInstance
			elapsed, err := statefunWorkload(n, msgs, durable)
			if err != nil {
				return fmt.Errorf("statefun %d/%v: %w", n, durable, err)
			}
			r := statefunRow{
				Instances: n,
				Durable:   durable,
				Msgs:      msgs,
				Seconds:   elapsed.Seconds(),
				MsgsPerS:  float64(msgs) / elapsed.Seconds(),
			}
			rows = append(rows, r)
			row(w, "%10d %10v %10d %9.2f %12.0f", r.Instances, r.Durable, r.Msgs, r.Seconds, r.MsgsPerS)
		}
	}
	if o.JSON != nil {
		enc := json.NewEncoder(o.JSON)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"experiment": ExpStatefun,
			"rows":       rows,
		})
	}
	return nil
}

// statefunWorkload boots a fresh runtime, spreads msgs across n
// instances of a counting function, and returns the wall time until
// every message's effects are confirmed.
func statefunWorkload(n, msgs int, durable bool) (time.Duration, error) {
	opts := crucial.Options{
		DSONodes: 4,
		Statefun: crucial.StatefunOptions{InProcess: true, Workers: 16},
	}
	if durable {
		opts.Durability = crucial.DefaultDurabilityPolicy()
	}
	rt, err := crucial.NewLocalRuntime(opts)
	if err != nil {
		return 0, err
	}
	defer func() { _ = rt.Close() }()
	type countState struct {
		N int64
	}
	fn, err := rt.DeployStatefulFunction("count", func(c *crucial.FnCtx, m crucial.FnMsg) error {
		var st countState
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
			return fmt.Errorf("unknown message %q", m.Name())
		}
	})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	workers := n
	if workers > 64 {
		workers = 64
	}
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// Fire-and-forget adds; worker w owns instances w, w+W, ... so no
	// two workers contend on one per-destination sender stream.
	for w := 0; w < workers; w++ {
		share := msgs / workers
		if w < msgs%workers {
			share++
		}
		wg.Add(1)
		go func(w, share int) {
			defer wg.Done()
			for k := 0; k < share; k++ {
				id := fmt.Sprintf("i%d", (w+k*workers)%n)
				if err := fn.Send(ctx, id, "add", nil); err != nil {
					fail(err)
					return
				}
			}
		}(w, share)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	// Drain barrier: mailboxes are FIFO, so a reply to a get pushed
	// after the adds proves the instance's adds are all applied. The
	// counts must also balance exactly.
	var total int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sum int64
			for i := w; i < n; i += workers {
				var st countState
				if err := fn.Call(ctx, fmt.Sprintf("i%d", i), "get", nil, &st); err != nil {
					fail(err)
					return
				}
				sum += st.N
			}
			mu.Lock()
			total += sum
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	elapsed := time.Since(start)
	if total != int64(msgs) {
		return 0, fmt.Errorf("applied %d messages, want %d", total, msgs)
	}
	return elapsed, nil
}
