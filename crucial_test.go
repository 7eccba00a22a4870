package crucial

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/telemetry"
)

// testRuntime builds a small local runtime for tests.
func testRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	rt, err := NewLocalRuntime(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

func bg() context.Context { return context.Background() }

// piEstimator is the Listing 1 port: a Runnable sharing one AtomicLong.
type piEstimator struct {
	Iterations int64
	Seed       int64
	Counter    *AtomicLong
}

func (p *piEstimator) Run(tc *TC) error {
	rng := rand.New(rand.NewSource(p.Seed))
	var count int64
	for i := int64(0); i < p.Iterations; i++ {
		x, y := rng.Float64(), rng.Float64()
		if x*x+y*y <= 1.0 {
			count++
		}
	}
	_, err := p.Counter.AddAndGet(tc.Context(), count)
	return err
}

func TestMonteCarloListing1(t *testing.T) {
	Register(&piEstimator{})
	rt := testRuntime(t, Options{DSONodes: 2})

	const threads = 8
	const iters = 20000
	rs := make([]Runnable, threads)
	for i := range rs {
		rs[i] = &piEstimator{
			Iterations: iters,
			Seed:       int64(i + 1),
			Counter:    NewAtomicLong("counter"),
		}
	}
	ts := rt.SpawnAll(rs...)
	if err := JoinAll(ts); err != nil {
		t.Fatal(err)
	}

	counter := NewAtomicLong("counter")
	rt.Bind(counter)
	total, err := counter.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	pi := 4.0 * float64(total) / float64(threads*iters)
	if pi < 3.0 || pi > 3.3 {
		t.Fatalf("estimated pi = %v from %d hits", pi, total)
	}
}

// iterWorker exercises the k-means synchronization pattern: barrier-paced
// iterations over shared state.
type iterWorker struct {
	Iterations int
	Parties    int
	Sum        *AtomicLong
	Barrier    *CyclicBarrier
	Trace      *List[int64]
}

func (w *iterWorker) Run(tc *TC) error {
	ctx := tc.Context()
	for it := 0; it < w.Iterations; it++ {
		if _, err := w.Sum.AddAndGet(ctx, 1); err != nil {
			return err
		}
		if _, err := w.Barrier.Await(ctx); err != nil {
			return err
		}
		// After the barrier, every party must observe the full iteration's
		// contributions.
		v, err := w.Sum.Get(ctx)
		if err != nil {
			return err
		}
		if _, err := w.Trace.Add(ctx, v); err != nil {
			return err
		}
		if _, err := w.Barrier.Await(ctx); err != nil {
			return err
		}
	}
	return nil
}

func TestBarrierPacedIterations(t *testing.T) {
	Register(&iterWorker{})
	rt := testRuntime(t, Options{DSONodes: 2})

	const parties = 4
	const iterations = 3
	rs := make([]Runnable, parties)
	for i := range rs {
		rs[i] = &iterWorker{
			Iterations: iterations,
			Parties:    parties,
			Sum:        NewAtomicLong("iter-sum"),
			Barrier:    NewCyclicBarrier("iter-barrier", parties),
			Trace:      NewList[int64]("iter-trace"),
		}
	}
	if err := JoinAll(rt.SpawnAll(rs...)); err != nil {
		t.Fatal(err)
	}

	trace := NewList[int64]("iter-trace")
	rt.Bind(trace)
	vals, err := trace.GetAll(bg())
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != parties*iterations {
		t.Fatalf("trace has %d entries, want %d", len(vals), parties*iterations)
	}
	// Every observation after the it-th barrier must be (it+1)*parties.
	for i, v := range vals {
		iter := i / parties
		want := int64((iter + 1) * parties)
		if v != want {
			t.Fatalf("observation %d = %d, want %d (sum not synchronized)", i, v, want)
		}
	}
}

// flakyWorker exercises the retry path with the shared-iteration-counter
// idempotence idiom of Section 4.4.
type flakyWorker struct {
	Done *AtomicLong
}

func (w *flakyWorker) Run(tc *TC) error {
	_, err := w.Done.AddAndGet(tc.Context(), 1)
	return err
}

func TestRetriesRecoverInjectedFailures(t *testing.T) {
	Register(&flakyWorker{})
	rt := testRuntime(t, Options{
		FailureRate:  0.3,
		DefaultRetry: RetryPolicy{MaxRetries: 20, Backoff: time.Millisecond},
	})

	const threads = 10
	rs := make([]Runnable, threads)
	for i := range rs {
		rs[i] = &flakyWorker{Done: NewAtomicLong("done")}
	}
	if err := JoinAll(rt.SpawnAll(rs...)); err != nil {
		t.Fatal(err)
	}
	done := NewAtomicLong("done")
	rt.Bind(done)
	v, err := done.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	if v != threads {
		t.Fatalf("done = %d, want %d", v, threads)
	}
	if rt.Platform().Metrics().Counter(telemetry.MetFaaSFailures).Value() == 0 {
		t.Fatal("no failures injected; the retry path was not exercised")
	}
}

func TestThreadErrorPropagatesToJoin(t *testing.T) {
	Register(&failingWorker{})
	rt := testRuntime(t, Options{})
	th := rt.NewThread(&failingWorker{})
	th.Start()
	if err := th.Join(); err == nil {
		t.Fatal("Join returned nil for failing runnable")
	}
}

type failingWorker struct{ X int }

func (w *failingWorker) Run(*TC) error {
	return errTest
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "worker failed" }

func TestJoinBeforeStart(t *testing.T) {
	rt := testRuntime(t, Options{})
	th := rt.NewThread(&failingWorker{})
	if err := th.Join(); err != ErrThreadNotStarted {
		t.Fatalf("Join before Start = %v", err)
	}
}

func TestHandleUnboundError(t *testing.T) {
	c := NewAtomicLong("unbound")
	if _, err := c.Get(bg()); err == nil {
		t.Fatal("unbound proxy call succeeded")
	}
}

func TestHandleGobRoundTrip(t *testing.T) {
	a := NewAtomicLongInit("k1", 7, WithPersist())
	data, err := a.H.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var h Handle
	if err := h.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if h.Ref() != a.H.Ref() || !h.Persistent() {
		t.Fatalf("round trip lost metadata: %+v", h)
	}
}

// fakeInvoker records invocations for bind tests.
type fakeInvoker struct {
	mu    sync.Mutex
	calls []core.Invocation
}

func (f *fakeInvoker) InvokeObject(_ context.Context, inv core.Invocation) ([]any, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, inv)
	return []any{int64(0)}, nil
}

func TestBindSharedWalksNestedStructures(t *testing.T) {
	type inner struct {
		C *AtomicLong
	}
	type outer struct {
		Direct  *AtomicLong
		Value   AtomicLong
		Nested  *inner
		Slice   []*AtomicLong
		Mapped  map[string]*AtomicLong
		private *AtomicLong //nolint:unused // must be skipped, not panic
	}
	o := &outer{
		Direct: NewAtomicLong("d"),
		Value:  *NewAtomicLong("v"),
		Nested: &inner{C: NewAtomicLong("n")},
		Slice:  []*AtomicLong{NewAtomicLong("s0"), NewAtomicLong("s1")},
		Mapped: map[string]*AtomicLong{"m": NewAtomicLong("m")},
	}
	inv := &fakeInvoker{}
	BindShared(inv, o)

	for name, probe := range map[string]func() error{
		"direct": func() error { _, err := o.Direct.Get(bg()); return err },
		"value":  func() error { _, err := o.Value.Get(bg()); return err },
		"nested": func() error { _, err := o.Nested.C.Get(bg()); return err },
		"slice0": func() error { _, err := o.Slice[0].Get(bg()); return err },
		"slice1": func() error { _, err := o.Slice[1].Get(bg()); return err },
		"mapped": func() error { _, err := o.Mapped["m"].Get(bg()); return err },
	} {
		if err := probe(); err != nil {
			t.Errorf("%s proxy not bound: %v", name, err)
		}
	}
}

func TestBindSharedNilSafety(t *testing.T) {
	type holder struct {
		C *AtomicLong
	}
	BindShared(&fakeInvoker{}, nil, (*holder)(nil), &holder{})
}

func TestBindSharedCycle(t *testing.T) {
	type nodeT struct {
		Next *nodeT
		C    *AtomicLong
	}
	a := &nodeT{C: NewAtomicLong("a")}
	b := &nodeT{C: NewAtomicLong("b"), Next: a}
	a.Next = b // cycle
	inv := &fakeInvoker{}
	BindShared(inv, a)
	if _, err := a.C.Get(bg()); err != nil {
		t.Fatal("cycle start not bound")
	}
	if _, err := b.C.Get(bg()); err != nil {
		t.Fatal("cycle peer not bound")
	}
}

// customCounter is a user-defined shared object (the @Shared analog).
type customCounter struct {
	total int64
	peak  int64
}

func newCustomCounter(_ []any) (ServerObject, error) {
	return &customCounter{}, nil
}

func (c *customCounter) Call(_ Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Update":
		v, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		c.total += v
		if v > c.peak {
			c.peak = v
		}
		return []any{c.total}, nil
	case "Peak":
		return []any{c.peak}, nil
	default:
		return nil, core.ErrUnknownMethod
	}
}

func TestUserDefinedSharedObject(t *testing.T) {
	reg := NewTypeRegistry()
	reg.MustRegister(ObjectType{Name: "CustomCounter", New: newCustomCounter})
	rt := testRuntime(t, Options{Registry: reg})

	s := NewShared("CustomCounter", "metrics", nil)
	rt.Bind(s)
	for _, v := range []int64{3, 9, 4} {
		if _, err := s.Invoke(bg(), "Update", v); err != nil {
			t.Fatal(err)
		}
	}
	peak, err := Call1[int64](bg(), s, "Peak")
	if err != nil {
		t.Fatal(err)
	}
	if peak != 9 {
		t.Fatalf("peak = %d", peak)
	}
	total, err := Call1[int64](bg(), s, "Update", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	if total != 16 {
		t.Fatalf("total = %d", total)
	}
}

func TestPersistentProxySurvivesCrash(t *testing.T) {
	rt := testRuntime(t, Options{DSONodes: 3, RF: 2})
	c := NewAtomicLong("durable", WithPersist())
	rt.Bind(c)
	if err := c.Set(bg(), 99); err != nil {
		t.Fatal(err)
	}
	view := rt.Cluster().Dir.View()
	primary := view.Ring().ReplicaSet(c.H.Ref().String(), 2)[0]
	if err := rt.Cluster().CrashNode(primary); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("durable value = %d after crash", v)
	}
}

func TestFutureProxyAcrossThreads(t *testing.T) {
	Register(&futureSetter{})
	rt := testRuntime(t, Options{})
	f := NewFuture[string]("result")
	rt.Bind(f)

	th := rt.NewThread(&futureSetter{F: NewFuture[string]("result"), Value: "done"})
	th.Start()
	got, err := f.Get(bg())
	if err != nil {
		t.Fatal(err)
	}
	if got != "done" {
		t.Fatalf("future = %q", got)
	}
	if err := th.Join(); err != nil {
		t.Fatal(err)
	}
}

type futureSetter struct {
	F     *Future[string]
	Value string
}

func (s *futureSetter) Run(tc *TC) error {
	return s.F.Set(tc.Context(), s.Value)
}

func TestMapAndListProxies(t *testing.T) {
	rt := testRuntime(t, Options{DSONodes: 2})
	m := NewMap[int64]("scores")
	l := NewList[string]("names")
	rt.Bind(m, l)

	if _, _, err := m.Put(bg(), "a", 1); err != nil {
		t.Fatal(err)
	}
	prev, had, err := m.Put(bg(), "a", 2)
	if err != nil || !had || prev != 1 {
		t.Fatalf("Put prev = %v %v %v", prev, had, err)
	}
	v, ok, err := m.Get(bg(), "a")
	if err != nil || !ok || v != 2 {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	if _, err := l.Add(bg(), "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Add(bg(), "y"); err != nil {
		t.Fatal(err)
	}
	all, err := l.GetAll(bg())
	if err != nil || len(all) != 2 || all[1] != "y" {
		t.Fatalf("GetAll = %v %v", all, err)
	}
}

func TestSemaphoreProxy(t *testing.T) {
	rt := testRuntime(t, Options{})
	s := NewSemaphore("sem", 2)
	rt.Bind(s)
	if err := s.AcquireN(bg(), 2); err != nil {
		t.Fatal(err)
	}
	ok, err := s.TryAcquire(bg())
	if err != nil || ok {
		t.Fatalf("TryAcquire with 0 permits = %v %v", ok, err)
	}
	if err := s.Release(bg()); err != nil {
		t.Fatal(err)
	}
	n, err := s.AvailablePermits(bg())
	if err != nil || n != 1 {
		t.Fatalf("permits = %d %v", n, err)
	}
}

func TestCountDownLatchProxy(t *testing.T) {
	rt := testRuntime(t, Options{})
	l := NewCountDownLatch("latch", 2)
	rt.Bind(l)
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		_, _ = l.CountDown(bg())
		_, _ = l.CountDown(bg())
	}()
	if err := l.Await(bg()); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("Await returned before countdowns")
	}
}

func TestAtomicReferenceProxy(t *testing.T) {
	rt := testRuntime(t, Options{})
	r := NewAtomicReference[[]float64]("weights")
	rt.Bind(r)
	_, ok, err := r.Get(bg())
	if err != nil || ok {
		t.Fatalf("fresh reference: %v %v", ok, err)
	}
	if err := r.Set(bg(), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := r.Get(bg())
	if err != nil || !ok || len(v) != 2 {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
}

func TestDoubleArrayProxyAggregates(t *testing.T) {
	rt := testRuntime(t, Options{})
	a := NewAtomicDoubleArray("grad", 3)
	rt.Bind(a)
	if err := a.AddAll(bg(), []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddAll(bg(), []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	all, err := a.GetAll(bg())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 4}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("GetAll = %v", all)
		}
	}
}

// The membership directory builds one ring per view; the runtime's two
// clients and the nodes of an in-process cluster route through that ring
// instead of building their own copies.
func TestClientsAndNodesShareTheViewRing(t *testing.T) {
	rt := testRuntime(t, Options{DSONodes: 3})
	want := rt.clu.Dir.RingFor(rt.clu.Dir.View())
	if want.Size() != 3 {
		t.Fatalf("the directory's ring holds %d nodes, want 3", want.Size())
	}
	if rt.fnClient.DebugRing() != want || rt.masterClient.DebugRing() != want {
		t.Fatal("a runtime client routes through a ring of its own")
	}
	for _, id := range rt.clu.NodeIDs() {
		n, _ := rt.clu.Node(id)
		if n.DebugRing() != want {
			t.Fatalf("node %s places through a ring of its own", id)
		}
	}
}
