// Package faas simulates a Function-as-a-Service platform with the
// operational behaviour of AWS Lambda that the paper depends on
// (Section 2.1): synchronous RequestResponse invocation, per-function
// container pools with cold starts, memory and execution-time limits, an
// account-level concurrency cap, and duration-based billing. Functions are
// Go closures; the simulated aspects are provisioning latency, limits, and
// cost accounting — the function body really executes.
package faas

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"crucial/internal/netsim"
	"crucial/internal/telemetry"
)

// Default limits, mirroring AWS Lambda at the paper's time of writing.
const (
	// DefaultMemoryMB is the default function memory (the paper's logistic
	// regression setting: 1 full vCPU's worth).
	DefaultMemoryMB = 1792
	// MaxMemoryMB was Lambda's cap (3008 MB in 2019).
	MaxMemoryMB = 3008
	// DefaultTimeout is Lambda's maximum execution time (15 min), in
	// modeled time.
	DefaultTimeout = 15 * time.Minute
	// DefaultConcurrency is the account-level concurrent execution cap.
	DefaultConcurrency = 1000
)

// Errors returned by the platform.
var (
	// ErrNotDeployed is returned when invoking an unknown function.
	ErrNotDeployed = errors.New("faas: function not deployed")
	// ErrTimeout is returned when a function exceeds its timeout.
	ErrTimeout = errors.New("faas: function timed out")
	// ErrThrottled is returned when the concurrency cap is hit and the
	// function is configured not to queue.
	ErrThrottled = errors.New("faas: throttled, concurrency limit reached")
	// ErrInjectedFailure marks failures from the fault-injection hook.
	ErrInjectedFailure = errors.New("faas: injected invocation failure")
)

// Handler is a function entry point: payload in, payload out.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// Injector is the seam for external fault-injection engines (the chaos
// package's Engine satisfies it without either package importing the
// other). The platform consults it on every invocation, before the
// per-function FailureRate dice.
type Injector interface {
	// InvocationFault returns a non-nil error to fail the invocation at
	// the sandbox level; the platform surfaces it as ErrInjectedFailure.
	InvocationFault(fn string) error
	// ContainerDelay returns an extra execution delay modeling a slow or
	// cold-throttled container; zero means none.
	ContainerDelay(fn string) time.Duration
}

// FunctionConfig describes one deployed function.
type FunctionConfig struct {
	// MemoryMB in [64, MaxMemoryMB]; defaults to DefaultMemoryMB.
	MemoryMB int
	// Timeout is the modeled execution limit; defaults to DefaultTimeout.
	Timeout time.Duration
	// FailureRate in [0,1) injects random invocation failures before the
	// handler runs, for retry-path testing.
	FailureRate float64
	// NoQueue makes the platform return ErrThrottled instead of waiting
	// when the concurrency cap is reached.
	NoQueue bool
}

func (c FunctionConfig) withDefaults() (FunctionConfig, error) {
	if c.MemoryMB == 0 {
		c.MemoryMB = DefaultMemoryMB
	}
	if c.MemoryMB < 64 || c.MemoryMB > MaxMemoryMB {
		return c, fmt.Errorf("faas: memory %d MB outside [64,%d]", c.MemoryMB, MaxMemoryMB)
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return c, fmt.Errorf("faas: failure rate %v outside [0,1)", c.FailureRate)
	}
	return c, nil
}

type function struct {
	name    string
	handler Handler
	cfg     FunctionConfig

	mu   sync.Mutex
	warm int // idle warm containers
}

// Platform is one simulated FaaS region/account.
type Platform struct {
	profile  *netsim.Profile
	log      *slog.Logger
	injector Injector

	sem chan struct{} // account concurrency

	mu        sync.Mutex
	functions map[string]*function
	rng       *rand.Rand

	// Telemetry: counters always live in a registry (a private one when
	// telemetry is disabled, so Metrics keeps working at seed cost); spans,
	// histograms and extra timestamps are only taken when a shared
	// telemetry bundle was supplied (instrumented == true).
	tracer       *telemetry.Tracer
	metrics      *telemetry.Registry
	instrumented bool

	cInvocations *telemetry.Counter
	cColdStarts  *telemetry.Counter
	cFailures    *telemetry.Counter
	cTimeouts    *telemetry.Counter
	cThrottled   *telemetry.Counter
	fBilled      *telemetry.FloatCounter
	gInflight    *telemetry.Gauge
	hInvoke      *telemetry.Histogram
	hColdStart   *telemetry.Histogram
	hQueueWait   *telemetry.Histogram
}

// Options configures a Platform.
type Options struct {
	// Profile supplies cold-start and dispatch latencies; nil means none.
	Profile *netsim.Profile
	// Concurrency is the account cap (default DefaultConcurrency).
	Concurrency int
	// Seed makes fault injection deterministic (default 1).
	Seed int64
	// Telemetry, when non-nil, turns on full instrumentation: per-stage
	// spans (cold vs warm annotated) and latency histograms recorded into
	// the shared registry. Nil keeps the platform at seed overhead.
	Telemetry *telemetry.Telemetry
	// Injector, when non-nil, is consulted on every invocation for
	// chaos-driven faults (see Injector).
	Injector Injector
}

// NewPlatform builds an empty platform.
func NewPlatform(opts Options) *Platform {
	if opts.Profile == nil {
		opts.Profile = netsim.Zero()
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = DefaultConcurrency
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	p := &Platform{
		profile:   opts.Profile,
		log:       telemetry.Logger(telemetry.CompFaaS),
		injector:  opts.Injector,
		sem:       make(chan struct{}, opts.Concurrency),
		functions: make(map[string]*function),
		rng:       rand.New(rand.NewSource(opts.Seed)),
	}
	if opts.Telemetry != nil {
		p.instrumented = true
		p.tracer = opts.Telemetry.Tracer()
		p.metrics = opts.Telemetry.Metrics()
		p.gInflight = p.metrics.Gauge(telemetry.MetFaaSInflight)
		p.hInvoke = p.metrics.Histogram(telemetry.HistFaaSInvoke)
		p.hColdStart = p.metrics.Histogram(telemetry.HistFaaSColdStart)
		p.hQueueWait = p.metrics.Histogram(telemetry.HistFaaSQueueWait)
	} else {
		p.metrics = telemetry.NewRegistry()
	}
	p.cInvocations = p.metrics.Counter(telemetry.MetFaaSInvocations)
	p.cColdStarts = p.metrics.Counter(telemetry.MetFaaSColdStarts)
	p.cFailures = p.metrics.Counter(telemetry.MetFaaSFailures)
	p.cTimeouts = p.metrics.Counter(telemetry.MetFaaSTimeouts)
	p.cThrottled = p.metrics.Counter(telemetry.MetFaaSThrottled)
	p.fBilled = p.metrics.Float(telemetry.MetFaaSBilledGBs)
	return p
}

// Deploy registers (or replaces) a function.
func (p *Platform) Deploy(name string, handler Handler, cfg FunctionConfig) error {
	if name == "" {
		return errors.New("faas: function name must not be empty")
	}
	if handler == nil {
		return errors.New("faas: nil handler")
	}
	full, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.functions[name] = &function{name: name, handler: handler, cfg: full}
	return nil
}

// Metrics exposes the platform's metrics registry (the private fallback
// registry when no telemetry bundle was configured).
func (p *Platform) Metrics() *telemetry.Registry { return p.metrics }

// Invoke runs one synchronous (RequestResponse) invocation: it waits for a
// concurrency slot, provisions a container (cold start if none is warm),
// executes the handler under the function's timeout, and returns its
// result. Invoke never retries — retry policy belongs to the caller, like
// the cloud-thread layer in the paper (Section 4.4).
func (p *Platform) Invoke(ctx context.Context, name string, payload []byte) ([]byte, error) {
	p.mu.Lock()
	fn, ok := p.functions[name]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotDeployed, name)
	}

	// Telemetry: one faas.invoke span per invocation (child of the
	// caller's cloud-thread span, which arrives through ctx), annotated
	// cold/warm, with queue-wait and cold-start stage timings. All of
	// this is skipped when the platform is uninstrumented.
	var span *telemetry.Span
	var invokeStart time.Time
	if p.instrumented {
		invokeStart = time.Now()
		ctx, span = p.tracer.Start(ctx, telemetry.SpanFaaSInvoke)
		span.SetAttr(telemetry.AttrFunction, name)
		p.gInflight.Add(1)
		defer func() {
			p.gInflight.Add(-1)
			p.hInvoke.Observe(time.Since(invokeStart))
			span.End()
		}()
	}

	// Concurrency admission.
	if fn.cfg.NoQueue {
		select {
		case p.sem <- struct{}{}:
		default:
			p.cThrottled.Inc()
			span.SetAttr(telemetry.AttrError, "throttled")
			p.log.DebugContext(ctx, "invocation throttled", "function", name)
			return nil, ErrThrottled
		}
	} else {
		if p.instrumented {
			queued := time.Now()
			select {
			case p.sem <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			wait := time.Since(queued)
			p.hQueueWait.Observe(wait)
			span.AddTiming(telemetry.TimingQueueWait, wait)
		} else {
			select {
			case p.sem <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	defer func() { <-p.sem }()

	// Container acquisition: reuse a warm container or pay a cold start.
	fn.mu.Lock()
	cold := fn.warm == 0
	if !cold {
		fn.warm--
	}
	fn.mu.Unlock()

	if cold {
		p.cColdStarts.Inc()
		span.SetAttr(telemetry.AttrCold, "true")
		p.log.DebugContext(ctx, "cold start", "function", name)
		if p.instrumented {
			provision := time.Now()
			if err := p.profile.Delay(ctx, p.profile.ColdStart); err != nil {
				return nil, err
			}
			d := time.Since(provision)
			p.hColdStart.Observe(d)
			span.AddTiming(telemetry.TimingColdStart, d)
		} else if err := p.profile.Delay(ctx, p.profile.ColdStart); err != nil {
			return nil, err
		}
	} else {
		span.SetAttr(telemetry.AttrCold, "false")
		if err := p.profile.Delay(ctx, p.profile.InvokeOverhead); err != nil {
			return nil, err
		}
	}
	// The container returns to the warm pool whatever the outcome.
	defer func() {
		fn.mu.Lock()
		fn.warm++
		fn.mu.Unlock()
	}()

	// Fault injection, before user code like a sandbox-level failure.
	// Chaos-engine faults first (they carry their own schedule), then the
	// function's static FailureRate dice.
	p.cInvocations.Inc()
	if p.injector != nil {
		if ferr := p.injector.InvocationFault(name); ferr != nil {
			p.cFailures.Inc()
			p.fnFailures(name).Inc()
			span.SetAttr(telemetry.AttrError, "injected failure")
			p.log.DebugContext(ctx, "chaos-injected invocation failure",
				"function", name, "err", ferr)
			return nil, fmt.Errorf("%w: %s: %v", ErrInjectedFailure, name, ferr)
		}
		if d := p.injector.ContainerDelay(name); d > 0 {
			// A slow container: the handler still runs, just later. The
			// delay bites the caller's deadline like real sandbox jitter.
			if err := netsim.Sleep(ctx, d); err != nil {
				return nil, err
			}
		}
	}
	p.mu.Lock()
	failed := fn.cfg.FailureRate > 0 && p.rng.Float64() < fn.cfg.FailureRate
	p.mu.Unlock()
	if failed {
		p.cFailures.Inc()
		p.fnFailures(name).Inc()
		span.SetAttr(telemetry.AttrError, "injected failure")
		p.log.DebugContext(ctx, "injected invocation failure", "function", name)
		return nil, fmt.Errorf("%w: %s", ErrInjectedFailure, name)
	}

	// Execute under the (scaled) timeout and bill modeled duration.
	realTimeout := p.profile.Scaled(fn.cfg.Timeout)
	if realTimeout <= 0 {
		realTimeout = fn.cfg.Timeout
	}
	runCtx, cancel := context.WithTimeout(ctx, realTimeout)
	defer cancel()

	start := time.Now()
	out, err := runHandler(runCtx, fn.handler, payload)
	elapsed := time.Since(start)

	p.fBilled.Add(p.modeledSeconds(elapsed) * float64(fn.cfg.MemoryMB) / 1024.0)

	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			p.cTimeouts.Inc()
			p.fnTimeouts(name).Inc()
			span.SetAttr(telemetry.AttrError, "timeout")
			p.log.WarnContext(ctx, "function timed out",
				"function", name, "timeout", fn.cfg.Timeout)
			return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, name, fn.cfg.Timeout)
		}
		p.cFailures.Inc()
		p.fnFailures(name).Inc()
		span.SetAttr(telemetry.AttrError, err.Error())
		return nil, err
	}
	return out, nil
}

// fnFailures and fnTimeouts return the per-function failure/timeout
// counters, exported as crucial_faas_failures_by_fn_<fn>_total and
// crucial_faas_timeouts_by_fn_<fn>_total so dashboards can tell which
// function the fleet is losing invocations on.
func (p *Platform) fnFailures(name string) *telemetry.Counter {
	return p.metrics.Counter(telemetry.MetFaaSFailurePrefix + name)
}

func (p *Platform) fnTimeouts(name string) *telemetry.Counter {
	return p.metrics.Counter(telemetry.MetFaaSTimeoutPrefix + name)
}

// modeledSeconds converts a measured wall-clock duration back to modeled
// time by dividing out the profile's compression factor.
func (p *Platform) modeledSeconds(d time.Duration) float64 {
	scale := p.profile.Scale
	if scale <= 0 {
		scale = 1
	}
	return d.Seconds() / scale
}

// runHandler isolates handler panics as errors, as a FaaS sandbox would.
func runHandler(ctx context.Context, h Handler, payload []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("faas: handler panic: %v", r)
		}
	}()
	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- result{err: fmt.Errorf("faas: handler panic: %v", r)}
			}
		}()
		o, e := h(ctx, payload)
		done <- result{out: o, err: e}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// WarmContainers reports the idle container count for a function (tests).
func (p *Platform) WarmContainers(name string) int {
	p.mu.Lock()
	fn, ok := p.functions[name]
	p.mu.Unlock()
	if !ok {
		return 0
	}
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return fn.warm
}

// Prewarm provisions n warm containers for a function so experiments can
// exclude cold starts, as the paper does ("FaaS cold starts are excluded
// due to a global barrier before measurement").
func (p *Platform) Prewarm(name string, n int) error {
	p.mu.Lock()
	fn, ok := p.functions[name]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotDeployed, name)
	}
	fn.mu.Lock()
	fn.warm += n
	fn.mu.Unlock()
	return nil
}
