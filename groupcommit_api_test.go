package crucial

import "testing"

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

// TestHotCounterGroupCommit pins group commit at the runtime level on
// default options: cloud threads hammering one persistent counter go
// through its lane, inline or in shared rounds, and every increment lands
// exactly once. Whether a write queues depends on scheduling; the server
// and cluster lane tests pin that it does under load.
func TestHotCounterGroupCommit(t *testing.T) {
	Register(&incWorker{})
	rt := testRuntime(t, Options{DSONodes: 3, RF: 2})

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
		t.Fatalf("counter = %d after %d increments", total, threads*perThread)
	}
}
