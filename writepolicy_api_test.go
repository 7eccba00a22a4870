package crucial

import (
	"sync"
	"testing"

	"crucial/internal/telemetry"
)

// incWorker bumps one shared persistent counter n times from a cloud
// thread; many of them concurrently is the group-commit hot-spot pattern.
type incWorker struct {
	N       int
	Counter *AtomicLong
}

func (w *incWorker) Run(tc *TC) error {
	for i := 0; i < w.N; i++ {
		if _, err := w.Counter.IncrementAndGet(tc.Context()); err != nil {
			return err
		}
	}
	return nil
}

// TestWritePolicyOptionRoundTrip pins the single-seam contract of the
// WritePolicy API: the struct handed to Options.Write is the same one the
// cluster gives every server (server.Config.Write), and with batching
// enabled the runtime's whole
// write path — cloud threads included — flows through group commit while
// staying exact.
func TestWritePolicyOptionRoundTrip(t *testing.T) {
	Register(&incWorker{})
	tel := telemetry.New()
	rt := testRuntime(t, Options{
		DSONodes:  3,
		RF:        2,
		Telemetry: tel,
		Write:     DefaultWritePolicy(),
	})

	const threads, perThread = 6, 30
	rs := make([]Runnable, threads)
	for i := range rs {
		rs[i] = &incWorker{N: perThread, Counter: NewAtomicLong("wp/counter", WithPersist())}
	}
	if err := JoinAll(rt.SpawnAll(rs...)); err != nil {
		t.Fatal(err)
	}

	counter := NewAtomicLong("wp/counter", WithPersist())
	rt.Bind(counter)
	total, err := counter.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	if total != threads*perThread {
		t.Fatalf("counter = %d after %d batched increments", total, threads*perThread)
	}
	if tel.Metrics().Counter(telemetry.MetServerBatches).Value() == 0 {
		t.Error("Options.Write enabled batching but no batch round was cut")
	}
}

// TestWritePolicyZeroKeepsClassicPath pins backward compatibility at the
// runtime level: without Options.Write the counter still works and no
// batch round ever exists.
func TestWritePolicyZeroKeepsClassicPath(t *testing.T) {
	Register(&incWorker{})
	tel := telemetry.New()
	rt := testRuntime(t, Options{DSONodes: 2, RF: 2, Telemetry: tel})

	ctr := NewAtomicLong("wp/classic", WithPersist())
	rt.Bind(ctr)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := ctr.IncrementAndGet(bg()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total, err := ctr.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	if total != 40 {
		t.Fatalf("counter = %d after 40 increments", total)
	}
	if n := tel.Metrics().Counter(telemetry.MetServerBatches).Value(); n != 0 {
		t.Errorf("zero Options.Write cut %d batch rounds", n)
	}
}
