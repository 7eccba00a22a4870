package faas

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/netsim"
	"crucial/internal/telemetry"
)

func echo(_ context.Context, p []byte) ([]byte, error) { return p, nil }

func TestDeployAndInvoke(t *testing.T) {
	p := NewPlatform(Options{})
	if err := p.Deploy("echo", echo, FunctionConfig{}); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke(context.Background(), "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hi" {
		t.Fatalf("out = %q", out)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	p := NewPlatform(Options{})
	if _, err := p.Invoke(context.Background(), "ghost", nil); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("want ErrNotDeployed, got %v", err)
	}
}

func TestDeployValidation(t *testing.T) {
	p := NewPlatform(Options{})
	if err := p.Deploy("", echo, FunctionConfig{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := p.Deploy("f", nil, FunctionConfig{}); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := p.Deploy("f", echo, FunctionConfig{MemoryMB: 9999}); err == nil {
		t.Fatal("over-limit memory accepted")
	}
	if err := p.Deploy("f", echo, FunctionConfig{FailureRate: 1.5}); err == nil {
		t.Fatal("failure rate > 1 accepted")
	}
}

func TestColdThenWarm(t *testing.T) {
	p := NewPlatform(Options{Profile: netsim.Zero()})
	if err := p.Deploy("f", echo, FunctionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "f", nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Counter(telemetry.MetFaaSColdStarts).Value(); got != 1 {
		t.Fatalf("cold starts = %d, want 1", got)
	}
	if got := p.WarmContainers("f"); got != 1 {
		t.Fatalf("warm containers = %d, want 1", got)
	}
	if _, err := p.Invoke(context.Background(), "f", nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Counter(telemetry.MetFaaSColdStarts).Value(); got != 1 {
		t.Fatalf("second invocation cold-started (total %d)", got)
	}
}

func TestColdStartLatencyApplied(t *testing.T) {
	profile := netsim.Zero()
	profile.ColdStart = netsim.Latency{Base: 50 * time.Millisecond}
	p := NewPlatform(Options{Profile: profile})
	if err := p.Deploy("f", echo, FunctionConfig{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p.Invoke(context.Background(), "f", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("cold invocation took %v, want >= 50ms", d)
	}
	start = time.Now()
	if _, err := p.Invoke(context.Background(), "f", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 50*time.Millisecond {
		t.Fatalf("warm invocation took %v, want < 50ms", d)
	}
}

func TestPrewarmSkipsColdStart(t *testing.T) {
	profile := netsim.Zero()
	profile.ColdStart = netsim.Latency{Base: time.Hour} // would hang if hit
	p := NewPlatform(Options{Profile: profile})
	if err := p.Deploy("f", echo, FunctionConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Prewarm("f", 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, "f", nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Counter(telemetry.MetFaaSColdStarts).Value(); got != 0 {
		t.Fatalf("cold starts = %d after prewarm", got)
	}
	if err := p.Prewarm("ghost", 1); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Prewarm unknown fn: %v", err)
	}
}

func TestTimeout(t *testing.T) {
	p := NewPlatform(Options{})
	err := p.Deploy("slow", func(ctx context.Context, _ []byte) ([]byte, error) {
		select {
		case <-time.After(10 * time.Second):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, FunctionConfig{Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Invoke(context.Background(), "slow", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if got := p.Metrics().Counter(telemetry.MetFaaSTimeouts).Value(); got != 1 {
		t.Fatalf("timeouts = %d", got)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	p := NewPlatform(Options{})
	boom := errors.New("user code exploded")
	_ = p.Deploy("bad", func(context.Context, []byte) ([]byte, error) {
		return nil, boom
	}, FunctionConfig{})
	_, err := p.Invoke(context.Background(), "bad", nil)
	if !errors.Is(err, boom) {
		t.Fatalf("want user error, got %v", err)
	}
	if got := p.Metrics().Counter(telemetry.MetFaaSFailures).Value(); got != 1 {
		t.Fatalf("failures = %d", got)
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	p := NewPlatform(Options{})
	_ = p.Deploy("panics", func(context.Context, []byte) ([]byte, error) {
		panic("oh no")
	}, FunctionConfig{})
	_, err := p.Invoke(context.Background(), "panics", nil)
	if err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	p := NewPlatform(Options{Seed: 7})
	_ = p.Deploy("flaky", echo, FunctionConfig{FailureRate: 0.5})
	var failures int
	for i := 0; i < 40; i++ {
		if _, err := p.Invoke(context.Background(), "flaky", nil); err != nil {
			if !errors.Is(err, ErrInjectedFailure) {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
		}
	}
	if failures == 0 || failures == 40 {
		t.Fatalf("failure injection produced %d/40 failures", failures)
	}
}

func TestConcurrencyCapQueues(t *testing.T) {
	p := NewPlatform(Options{Concurrency: 2})
	var inFlight, peak atomic.Int32
	release := make(chan struct{})
	_ = p.Deploy("gate", func(context.Context, []byte) ([]byte, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-release
		return nil, nil
	}, FunctionConfig{})

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Invoke(context.Background(), "gate", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if peak.Load() > 2 {
		t.Fatalf("peak concurrency %d exceeded cap 2", peak.Load())
	}
}

func TestThrottleNoQueue(t *testing.T) {
	p := NewPlatform(Options{Concurrency: 1})
	release := make(chan struct{})
	_ = p.Deploy("gate", func(context.Context, []byte) ([]byte, error) {
		<-release
		return nil, nil
	}, FunctionConfig{NoQueue: true})

	errCh := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "gate", nil)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	_, err := p.Invoke(context.Background(), "gate", nil)
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("want ErrThrottled, got %v", err)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// billedVsMeasured runs one 1 GB invocation whose handler sleeps ~20ms and
// times itself, and returns the GB-seconds billed next to the seconds the
// handler measured. Comparing the two (instead of billing against the
// nominal 20ms) keeps the tests honest on a loaded box: an oversleep moves
// both sides.
func billedVsMeasured(t *testing.T, opts Options) (billedGBs, handlerSeconds float64) {
	t.Helper()
	p := NewPlatform(opts)
	var ran time.Duration
	_ = p.Deploy("work", func(context.Context, []byte) ([]byte, error) {
		start := time.Now()
		time.Sleep(20 * time.Millisecond)
		ran = time.Since(start)
		return nil, nil
	}, FunctionConfig{MemoryMB: 1024})
	if _, err := p.Invoke(context.Background(), "work", nil); err != nil {
		t.Fatal(err)
	}
	return p.Metrics().Float(telemetry.MetFaaSBilledGBs).Value(), ran.Seconds()
}

func TestBillingAccumulates(t *testing.T) {
	gb, ran := billedVsMeasured(t, Options{})
	if gb < 0.75*ran || gb > 1.25*ran {
		t.Fatalf("billed %v GB-s for a 1GB invocation that ran %vs", gb, ran)
	}
}

func TestBillingUsesModeledTime(t *testing.T) {
	// With a 1/10 profile, every real second is 10 modeled ones.
	profile := netsim.AWS2019(0.1)
	profile.ColdStart = netsim.Latency{}
	profile.InvokeOverhead = netsim.Latency{}
	gb, ran := billedVsMeasured(t, Options{Profile: profile})
	if want := 10 * ran; gb < 0.75*want || gb > 1.25*want {
		t.Fatalf("billed %v GB-s, want ~%v (10x the %vs the handler ran)", gb, want, ran)
	}
}

func TestInvokeContextCancelled(t *testing.T) {
	p := NewPlatform(Options{})
	_ = p.Deploy("f", func(ctx context.Context, _ []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, FunctionConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := p.Invoke(ctx, "f", nil); err == nil {
		t.Fatal("cancelled invocation returned nil error")
	}
}

func TestParallelInvocationsIndependent(t *testing.T) {
	p := NewPlatform(Options{})
	_ = p.Deploy("id", echo, FunctionConfig{})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i)}
			out, err := p.Invoke(context.Background(), "id", payload)
			if err != nil || len(out) != 1 || out[0] != byte(i) {
				t.Errorf("invocation %d: %v %v", i, out, err)
			}
		}(i)
	}
	wg.Wait()
	if got := p.Metrics().Counter(telemetry.MetFaaSInvocations).Value(); got != 20 {
		t.Fatalf("invocations = %d", got)
	}
}

// scriptedInjector fails/delays invocations on demand (the production
// implementation is the chaos engine; see chaos.Engine).
type scriptedInjector struct {
	mu        sync.Mutex
	failNext  int
	delayNext time.Duration
	delays    int
}

func (s *scriptedInjector) InvocationFault(string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failNext > 0 {
		s.failNext--
		return errors.New("scripted fault")
	}
	return nil
}

func (s *scriptedInjector) ContainerDelay(string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.delayNext
	s.delayNext = 0
	if d > 0 {
		s.delays++
	}
	return d
}

func TestInjectorFaultSurfacesAsInjectedFailure(t *testing.T) {
	inj := &scriptedInjector{failNext: 2}
	p := NewPlatform(Options{Injector: inj})
	if err := p.Deploy("f", echo, FunctionConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Invoke(context.Background(), "f", nil); !errors.Is(err, ErrInjectedFailure) {
			t.Fatalf("invocation %d: err = %v, want ErrInjectedFailure", i, err)
		}
	}
	if out, err := p.Invoke(context.Background(), "f", []byte("ok")); err != nil || string(out) != "ok" {
		t.Fatalf("after faults drained: %q, %v", out, err)
	}
	if got := p.Metrics().Counter(telemetry.MetFaaSFailures).Value(); got != 2 {
		t.Fatalf("failures = %d, want 2", got)
	}
	if got := p.Metrics().Counter("faas.failures.by_fn.f").Value(); got != 2 {
		t.Fatalf("per-function failure counter = %d, want 2", got)
	}
}

func TestInjectorContainerDelayStillExecutes(t *testing.T) {
	inj := &scriptedInjector{delayNext: 5 * time.Millisecond}
	p := NewPlatform(Options{Injector: inj})
	if err := p.Deploy("f", echo, FunctionConfig{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, err := p.Invoke(context.Background(), "f", []byte("slow"))
	if err != nil || string(out) != "slow" {
		t.Fatalf("delayed invocation: %q, %v", out, err)
	}
	if inj.delays != 1 {
		t.Fatalf("delays consumed = %d", inj.delays)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("container delay was not applied")
	}
}

func TestPerFunctionFailureAndTimeoutCounters(t *testing.T) {
	p := NewPlatform(Options{})
	_ = p.Deploy("boom", func(context.Context, []byte) ([]byte, error) {
		return nil, errors.New("app error")
	}, FunctionConfig{})
	_ = p.Deploy("slow", func(ctx context.Context, _ []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, FunctionConfig{Timeout: 5 * time.Millisecond})

	_, _ = p.Invoke(context.Background(), "boom", nil)
	if _, err := p.Invoke(context.Background(), "slow", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if got := p.Metrics().Counter("faas.failures.by_fn.boom").Value(); got != 1 {
		t.Fatalf("boom failures = %d", got)
	}
	if got := p.Metrics().Counter("faas.timeouts.by_fn.slow").Value(); got != 1 {
		t.Fatalf("slow timeouts = %d", got)
	}
	if got := p.Metrics().Counter("faas.failures.by_fn.slow").Value(); got != 0 {
		t.Fatalf("timeout double-counted as failure: %d", got)
	}
}
