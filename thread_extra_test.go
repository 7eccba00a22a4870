package crucial

import (
	"context"
	"errors"
	"testing"
	"time"

	"crucial/internal/telemetry"
)

// unregisteredRunnable is deliberately never passed to crucial.Register.
type unregisteredRunnable struct{ X int }

func (u *unregisteredRunnable) Run(*TC) error { return nil }

func TestUnregisteredRunnableFailsAtStart(t *testing.T) {
	rt := testRuntime(t, Options{})
	th := rt.NewThread(&unregisteredRunnable{X: 1})
	th.Start()
	err := th.Join()
	if err == nil {
		t.Fatal("unregistered runnable shipped successfully")
	}
}

func TestThreadIDsAreUnique(t *testing.T) {
	Register(&flakyWorker{})
	rt := testRuntime(t, Options{})
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		th := rt.NewThread(&flakyWorker{Done: NewAtomicLong("ids")})
		th.Start()
		if err := th.Join(); err != nil {
			t.Fatal(err)
		}
		if th.ID() == 0 || seen[th.ID()] {
			t.Fatalf("thread id %d reused or zero", th.ID())
		}
		seen[th.ID()] = true
	}
}

func TestDoubleStartIsIdempotent(t *testing.T) {
	Register(&flakyWorker{})
	rt := testRuntime(t, Options{})
	th := rt.NewThread(&flakyWorker{Done: NewAtomicLong("dbl")})
	th.Start()
	th.Start() // second Start must not spawn a second invocation
	if err := th.Join(); err != nil {
		t.Fatal(err)
	}
	done := NewAtomicLong("dbl")
	rt.Bind(done)
	v, err := done.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("runnable executed %d times", v)
	}
}

func TestJoinAllAggregatesFirstError(t *testing.T) {
	Register(&failingWorker{})
	Register(&flakyWorker{})
	rt := testRuntime(t, Options{})
	ts := rt.SpawnAll(
		&flakyWorker{Done: NewAtomicLong("agg")},
		&failingWorker{},
		&flakyWorker{Done: NewAtomicLong("agg")},
	)
	if err := JoinAll(ts); err == nil {
		t.Fatal("JoinAll swallowed the failure")
	}
	// All threads joined despite the error.
	done := NewAtomicLong("agg")
	rt.Bind(done)
	v, err := done.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("only %d healthy workers completed", v)
	}
}

// ctxProbe captures what the TC exposes.
type ctxProbe struct {
	Out *AtomicLong
}

func (p *ctxProbe) Run(tc *TC) error {
	if tc.Context() == nil {
		return errors.New("nil context")
	}
	if tc.ThreadID() == 0 {
		return errors.New("zero thread id")
	}
	if tc.Invoker() == nil {
		return errors.New("nil invoker")
	}
	// Proxies created at run time bind through tc.Bind.
	local := NewAtomicLong("ctx-probe-local")
	tc.Bind(local)
	if _, err := local.AddAndGet(tc.Context(), 1); err != nil {
		return err
	}
	_, err := p.Out.AddAndGet(tc.Context(), 1)
	return err
}

func TestThreadContextSurface(t *testing.T) {
	Register(&ctxProbe{})
	rt := testRuntime(t, Options{})
	th := rt.NewThread(&ctxProbe{Out: NewAtomicLong("ctx-probe")})
	th.Start()
	if err := th.Join(); err != nil {
		t.Fatal(err)
	}
}

func TestStartCtxCancellation(t *testing.T) {
	Register(&sleeperWorker{})
	rt := testRuntime(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	th := rt.NewThread(&sleeperWorker{Millis: 10_000})
	th.StartCtx(ctx)
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := th.Join(); err == nil {
		t.Fatal("cancelled thread joined without error")
	}
}

type sleeperWorker struct{ Millis int64 }

func (s *sleeperWorker) Run(tc *TC) error {
	select {
	case <-tc.Context().Done():
		return tc.Context().Err()
	case <-time.After(time.Duration(s.Millis) * time.Millisecond):
		return nil
	}
}

func TestRuntimePrewarmEliminatesColdStarts(t *testing.T) {
	Register(&flakyWorker{})
	rt := testRuntime(t, Options{})
	if err := rt.Prewarm(3); err != nil {
		t.Fatal(err)
	}
	ts := rt.SpawnAll(
		&flakyWorker{Done: NewAtomicLong("warm")},
		&flakyWorker{Done: NewAtomicLong("warm")},
		&flakyWorker{Done: NewAtomicLong("warm")},
	)
	if err := JoinAll(ts); err != nil {
		t.Fatal(err)
	}
	if rt.Platform().Metrics().Counter(telemetry.MetFaaSColdStarts).Value() != 0 {
		t.Fatalf("cold starts after prewarm: %d", rt.Platform().Metrics().Counter(telemetry.MetFaaSColdStarts).Value())
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt := testRuntime(t, Options{})
	if rt.Platform() == nil || rt.Cluster() == nil || rt.Profile() == nil || rt.Invoker() == nil {
		t.Fatal("runtime accessor returned nil")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal("double Close errored")
	}
}

func TestSharedCall0AndErrors(t *testing.T) {
	rt := testRuntime(t, Options{})
	s := NewShared("AtomicLong", "shared-void", []any{int64(5)})
	rt.Bind(s)
	if err := Call0(bg(), s, "Set", int64(9)); err != nil {
		t.Fatal(err)
	}
	v, err := Call1[int64](bg(), s, "Get")
	if err != nil || v != 9 {
		t.Fatalf("Call1 = %d, %v", v, err)
	}
	if _, err := Call1[string](bg(), s, "Get"); err == nil {
		t.Fatal("type-mismatched Call1 succeeded")
	}
	if _, err := s.Invoke(bg(), "Bogus"); err == nil {
		t.Fatal("unknown method accepted")
	}
}
