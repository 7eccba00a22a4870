// Package chaos is a deterministic, seeded fault-injection engine for the
// DSO stack. It weaves into the system at three seams:
//
//   - the network: Engine is the Verdict at the in-process network's one
//     delivery point (rpc.MemNetwork) and hands each process a named
//     Endpoint, so every frame on every link meets the fault rules —
//     per-link drop, delay, duplication (and, through probabilistic
//     delay, reordering) — plus symmetric and asymmetric partitions that
//     refuse dials and blackhole frames on established connections;
//   - node lifecycle: crash/restart schedules in a Plan drive
//     cluster-level Crash/Restart hooks, exercising failure detection,
//     view changes and state transfer;
//   - the FaaS platform: Engine implements the platform's fault-injector
//     seam, failing invocations and slowing container starts per function.
//
// Determinism: every probabilistic decision draws from one seeded
// math/rand stream guarded by the engine mutex, and GeneratePlan derives a
// fault schedule from a seed alone. Re-running with the same seed replays
// the same plan and the same per-frame dice stream — the interleaving with
// workload goroutines still varies with scheduling, but the fault schedule
// itself is reproducible, which is what a failed nemesis run needs.
//
// Faults operate at frame granularity, never mid-frame: the network hands
// its Verdict whole rpc frames, so a dropped request looks to the client
// exactly like a lost datagram — the connection stays usable and the
// multiplexed calls sharing it are unaffected. The engine keeps no state
// per connection and starts no goroutine; a delayed frame is one timer.
//
// Every injected fault increments a chaos.* counter (exported on /metrics
// as crucial_chaos_*_total) and, when a tracer is configured, records a
// chaos.fault marker span tagged with the fault kind and link.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"crucial/internal/rpc"
	"crucial/internal/telemetry"
)

// ErrPartitioned is returned by Dial on a blocked link. Its text contains
// "connection refused" so the DSO client's retryable-error classifier
// treats it like any other transport failure.
var ErrPartitioned = errors.New("chaos: connection refused (link partitioned)")

// Direction selects which flow a rule applies to, classified by the frame
// flags rather than by which side wrote the bytes.
type Direction int

const (
	// Both matches requests and responses.
	Both Direction = iota
	// Requests matches only caller->callee frames.
	Requests
	// Responses matches only callee->caller frames.
	Responses
)

// LinkFaults are the per-frame fault probabilities of one rule. All
// probabilities are in [0, 1].
type LinkFaults struct {
	// Drop blackholes the frame.
	Drop float64
	// Duplicate delivers the frame twice.
	Duplicate float64
	// Delay defers delivery by DelayBy plus a uniform jitter in
	// [0, DelayJitter). Because only some frames are delayed, delay doubles
	// as reordering: an undelayed successor overtakes a delayed frame.
	Delay       float64
	DelayBy     time.Duration
	DelayJitter time.Duration
}

// Rule applies LinkFaults to frames flowing From -> To. Endpoint name
// patterns are an exact name, "*" (any), or a "prefix*" glob such as
// "client-*". The zero Kind matches every message kind; a non-zero Kind
// restricts the rule to that kind (e.g. server.KindInvoke), letting a test
// fault the data plane while leaving membership traffic alone.
type Rule struct {
	From, To string
	Dir      Direction
	Kind     uint8
	Faults   LinkFaults
	// MaxHits, when positive, retires the rule after it has injected that
	// many faults ("drop exactly one response").
	MaxHits int

	hits int
}

// FaaSFaults configures fault injection for one FaaS function.
type FaaSFaults struct {
	// FailProb fails the invocation with the platform's injected-failure
	// error before the handler runs.
	FailProb float64
	// SlowProb stretches container provisioning by SlowBy plus a uniform
	// jitter in [0, SlowJitter), modelling a slow cold start.
	SlowProb   float64
	SlowBy     time.Duration
	SlowJitter time.Duration
	// MaxFaults, when positive, retires the entry after that many
	// injected faults.
	MaxFaults int

	hits int
}

// Options configures an Engine.
type Options struct {
	// Seed fixes the dice stream. The zero seed is replaced by 1 so that
	// the zero Options value is still deterministic.
	Seed int64
	// Telemetry supplies the counter registry and the tracer for
	// chaos.fault marker spans. When nil the engine keeps private
	// counters, still readable through Counts.
	Telemetry *telemetry.Telemetry
}

type link struct{ from, to string }

// Engine owns the fault rules and wraps a transport. All mutators are safe
// for concurrent use with in-flight traffic; rule changes apply to the
// next frame, not retroactively.
type Engine struct {
	mu      sync.Mutex
	rng     *rand.Rand
	inner   rpc.Transport
	mem     *rpc.MemNetwork // inner, when the engine is its Verdict
	rules   []*Rule
	blocked map[link]struct{}
	faas    map[string]*FaaSFaults

	tracer  *telemetry.Tracer
	metrics *telemetry.Registry

	cDropped        *telemetry.Counter
	cDelayed        *telemetry.Counter
	cDuplicated     *telemetry.Counter
	cPartitionDrops *telemetry.Counter
	cDialsRefused   *telemetry.Counter
	cFaaSFaults     *telemetry.Counter
	cFaaSDelays     *telemetry.Counter
	cCrashes        *telemetry.Counter
	cRestarts       *telemetry.Counter
}

// New builds an engine around the given inner transport. When inner is an
// *rpc.MemNetwork, the engine installs itself as the network's Verdict, so
// create it before anything dials. Over any other transport (a wrapper
// that counts traffic, say) the engine refuses dials across partitions but
// cannot see frames: link rules and partitions leave established
// connections alone.
func New(inner rpc.Transport, opts Options) *Engine {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	e := &Engine{
		rng:     rand.New(rand.NewSource(opts.Seed)),
		inner:   inner,
		blocked: make(map[link]struct{}),
		faas:    make(map[string]*FaaSFaults),
		tracer:  opts.Telemetry.Tracer(),
		metrics: opts.Telemetry.Metrics(),
	}
	if e.metrics == nil {
		// Count faults even when uninstrumented so Counts always works.
		e.metrics = telemetry.NewRegistry()
	}
	e.cDropped = e.metrics.Counter(telemetry.MetChaosFramesDropped)
	e.cDelayed = e.metrics.Counter(telemetry.MetChaosFramesDelayed)
	e.cDuplicated = e.metrics.Counter(telemetry.MetChaosFramesDuplicated)
	e.cPartitionDrops = e.metrics.Counter(telemetry.MetChaosPartitionDrops)
	e.cDialsRefused = e.metrics.Counter(telemetry.MetChaosDialsRefused)
	e.cFaaSFaults = e.metrics.Counter(telemetry.MetChaosFaaSFaults)
	e.cFaaSDelays = e.metrics.Counter(telemetry.MetChaosFaaSDelays)
	e.cCrashes = e.metrics.Counter(telemetry.MetChaosCrashes)
	e.cRestarts = e.metrics.Counter(telemetry.MetChaosRestarts)
	if mem, ok := inner.(*rpc.MemNetwork); ok {
		e.mem = mem
		mem.SetVerdict(e.frameVerdict)
	}
	return e
}

// Inner returns the wrapped transport (the real network under the chaos
// layer) — deployment glue listens and dials around the engine with it.
func (e *Engine) Inner() rpc.Transport { return e.inner }

// Endpoint returns the transport a process named name should use. Listen
// passes through untouched; Dial enforces partitions and names the
// connection's dialing end, so the Verdict judges both flows by link. The
// dialed address doubles as the remote endpoint name, which holds
// throughout the repo: node addresses equal node IDs on the in-memory
// transport, and clients dial nodes by address.
func (e *Engine) Endpoint(name string) rpc.Transport {
	return endpoint{e: e, name: name}
}

type endpoint struct {
	e    *Engine
	name string
}

func (ep endpoint) Listen(addr string) (net.Listener, error) {
	return ep.e.inner.Listen(addr)
}

func (ep endpoint) Dial(addr string) (net.Conn, error) {
	e := ep.e
	if e.linkBlocked(ep.name, addr) || e.linkBlocked(addr, ep.name) {
		// Refuse the dial when either flow is blocked: a connection that
		// can send but never hear answers is modelled by per-frame
		// partition drops on established connections, while fresh dials
		// across any partition fail fast like a real refused connection.
		e.cDialsRefused.Inc()
		e.markerSpan("dial_refused", ep.name+"->"+addr)
		return nil, fmt.Errorf("dial %s: %w", addr, ErrPartitioned)
	}
	if e.mem != nil {
		return e.mem.DialAs(ep.name, addr)
	}
	return e.inner.Dial(addr)
}

// Partition splits the cluster into groups and blocks every link that
// crosses group boundaries, in both directions. Names not listed in any
// group keep full connectivity. Calling Partition again replaces the
// previous partition.
func (e *Engine) Partition(groups ...[]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.blocked = make(map[link]struct{})
	for i, g := range groups {
		for j, h := range groups {
			if i == j {
				continue
			}
			for _, from := range g {
				for _, to := range h {
					e.blocked[link{from, to}] = struct{}{}
				}
			}
		}
	}
}

// PartitionOneWay blocks only the from -> to flow for each pair, creating
// an asymmetric partition: from's frames to to vanish while to can still
// reach from. Unlike Partition it adds to the current blocked set.
func (e *Engine) PartitionOneWay(from, to []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, f := range from {
		for _, t := range to {
			e.blocked[link{f, t}] = struct{}{}
		}
	}
}

// Heal removes every partition. Established connections resume delivering
// frames; refused dials succeed again on retry.
func (e *Engine) Heal() {
	e.mu.Lock()
	e.blocked = make(map[link]struct{})
	e.mu.Unlock()
}

func (e *Engine) linkBlocked(from, to string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.blocked[link{from, to}]
	return ok
}

// AddRule installs a fault rule and returns a function that removes it.
// Rules are consulted in installation order; the first rule matching a
// frame rolls the dice for it.
func (e *Engine) AddRule(r Rule) (remove func()) {
	rp := &r
	e.mu.Lock()
	e.rules = append(e.rules, rp)
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		for i, have := range e.rules {
			if have == rp {
				e.rules = append(e.rules[:i], e.rules[i+1:]...)
				return
			}
		}
	}
}

// ClearRules removes all link-fault rules (partitions are unaffected).
func (e *Engine) ClearRules() {
	e.mu.Lock()
	e.rules = nil
	e.mu.Unlock()
}

// SetFaaSFaults installs fault injection for one function; fn may be a
// "prefix*" glob or "*". A zero FaaSFaults removes the entry.
func (e *Engine) SetFaaSFaults(fn string, f FaaSFaults) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if f == (FaaSFaults{}) {
		delete(e.faas, fn)
		return
	}
	e.faas[fn] = &f
}

// ClearFaaSFaults removes all FaaS fault entries.
func (e *Engine) ClearFaaSFaults() {
	e.mu.Lock()
	e.faas = make(map[string]*FaaSFaults)
	e.mu.Unlock()
}

// Reset heals partitions and clears link and FaaS rules; counters keep
// their values.
func (e *Engine) Reset() {
	e.mu.Lock()
	e.blocked = make(map[link]struct{})
	e.rules = nil
	e.faas = make(map[string]*FaaSFaults)
	e.mu.Unlock()
}

// InvocationFault implements the FaaS platform's injector seam: a non-nil
// error fails the invocation before the handler runs. The returned error
// is nil or faas.ErrInjectedFailure — spelled structurally here because
// chaos must not import faas (the platform imports nothing of chaos
// either; the seam is a plain interface).
func (e *Engine) InvocationFault(fn string) error {
	e.mu.Lock()
	f := e.matchFaaS(fn)
	fault := f != nil && f.FailProb > 0 && e.rng.Float64() < f.FailProb && f.take()
	e.mu.Unlock()
	if !fault {
		return nil
	}
	e.cFaaSFaults.Inc()
	e.markerSpan("faas_failure", fn)
	return errInjectedInvocation
}

// errInjectedInvocation signals the platform to fail the invocation; the
// platform maps it onto its own ErrInjectedFailure accounting.
var errInjectedInvocation = errors.New("chaos: injected invocation failure")

// ContainerDelay implements the injector seam's slow-container leg: the
// returned duration stretches container provisioning for this invocation.
func (e *Engine) ContainerDelay(fn string) time.Duration {
	e.mu.Lock()
	f := e.matchFaaS(fn)
	var d time.Duration
	if f != nil && f.SlowProb > 0 && e.rng.Float64() < f.SlowProb && f.take() {
		d = f.SlowBy
		if f.SlowJitter > 0 {
			d += time.Duration(e.rng.Int63n(int64(f.SlowJitter)))
		}
	}
	e.mu.Unlock()
	if d > 0 {
		e.cFaaSDelays.Inc()
		e.markerSpan("faas_delay", fn)
	}
	return d
}

// matchFaaS returns the fault entry for fn (exact name wins over globs).
// Caller holds e.mu.
func (e *Engine) matchFaaS(fn string) *FaaSFaults {
	if f, ok := e.faas[fn]; ok {
		return f
	}
	for pat, f := range e.faas {
		if pat != fn && matchName(pat, fn) {
			return f
		}
	}
	return nil
}

func (f *FaaSFaults) take() bool {
	if f.MaxFaults > 0 && f.hits >= f.MaxFaults {
		return false
	}
	f.hits++
	return true
}

// NoteCrash records a plan-driven node crash in the counters/trace.
func (e *Engine) NoteCrash(node string) {
	e.cCrashes.Inc()
	e.markerSpan("crash", node)
}

// NoteRestart records a plan-driven node restart.
func (e *Engine) NoteRestart(node string) {
	e.cRestarts.Inc()
	e.markerSpan("restart", node)
}

// Counts is a snapshot of the fault counters.
type Counts struct {
	FramesDropped    uint64
	FramesDelayed    uint64
	FramesDuplicated uint64
	PartitionDrops   uint64
	DialsRefused     uint64
	FaaSFaults       uint64
	FaaSDelays       uint64
	Crashes          uint64
	Restarts         uint64
}

// Total sums every fault class.
func (c Counts) Total() uint64 {
	return c.FramesDropped + c.FramesDelayed + c.FramesDuplicated +
		c.PartitionDrops + c.DialsRefused + c.FaaSFaults + c.FaaSDelays +
		c.Crashes + c.Restarts
}

// Counts snapshots the fault counters.
func (e *Engine) Counts() Counts {
	return Counts{
		FramesDropped:    e.cDropped.Value(),
		FramesDelayed:    e.cDelayed.Value(),
		FramesDuplicated: e.cDuplicated.Value(),
		PartitionDrops:   e.cPartitionDrops.Value(),
		DialsRefused:     e.cDialsRefused.Value(),
		FaaSFaults:       e.cFaaSFaults.Value(),
		FaaSDelays:       e.cFaaSDelays.Value(),
		Crashes:          e.cCrashes.Value(),
		Restarts:         e.cRestarts.Value(),
	}
}

// frameVerdict is the engine's rpc.Verdict: it rolls the dice for one
// frame flowing from -> to. Partitions take precedence; otherwise the
// first matching rule decides. A connection dialed around the engine
// (through Inner) has an unnamed end and is never faulted.
func (e *Engine) frameVerdict(from, to string, meta rpc.FrameMeta) rpc.Fate {
	if from == "" || to == "" {
		return rpc.Fate{}
	}
	e.mu.Lock()
	if _, ok := e.blocked[link{from, to}]; ok {
		e.mu.Unlock()
		e.cPartitionDrops.Inc()
		e.markerSpan("partition_drop", from+"->"+to)
		return rpc.Fate{Drop: true}
	}
	var v rpc.Fate
	var kind string
	for _, r := range e.rules {
		if !r.matches(from, to, meta) {
			continue
		}
		f := r.Faults
		switch {
		case f.Drop > 0 && e.rng.Float64() < f.Drop:
			v.Drop = true
			kind = "drop"
		case f.Duplicate > 0 && e.rng.Float64() < f.Duplicate:
			v.Dup = true
			kind = "duplicate"
		case f.Delay > 0 && e.rng.Float64() < f.Delay:
			v.Delay = f.DelayBy
			if f.DelayJitter > 0 {
				v.Delay += time.Duration(e.rng.Int63n(int64(f.DelayJitter)))
			}
			kind = "delay"
		}
		if kind != "" {
			if r.MaxHits > 0 {
				r.hits++
				if r.hits >= r.MaxHits {
					e.removeRuleLocked(r)
				}
			}
		}
		break // first matching rule decides, fault or not
	}
	e.mu.Unlock()
	switch kind {
	case "drop":
		e.cDropped.Inc()
	case "duplicate":
		e.cDuplicated.Inc()
	case "delay":
		e.cDelayed.Inc()
	}
	if kind != "" {
		e.markerSpan(kind, from+"->"+to)
	}
	return v
}

func (e *Engine) removeRuleLocked(rp *Rule) {
	for i, have := range e.rules {
		if have == rp {
			e.rules = append(e.rules[:i], e.rules[i+1:]...)
			return
		}
	}
}

func (r *Rule) matches(from, to string, meta rpc.FrameMeta) bool {
	if !matchName(r.From, from) || !matchName(r.To, to) {
		return false
	}
	if r.Kind != 0 && r.Kind != meta.Kind {
		return false
	}
	switch r.Dir {
	case Requests:
		return meta.IsRequest()
	case Responses:
		return meta.IsResponse()
	}
	return true
}

// matchName matches an endpoint name against an exact name, "*", or a
// trailing-star prefix glob ("client-*").
func matchName(pat, name string) bool {
	if pat == "" || pat == "*" {
		return true
	}
	if strings.HasSuffix(pat, "*") {
		return strings.HasPrefix(name, strings.TrimSuffix(pat, "*"))
	}
	return pat == name
}

// markerSpan records a chaos.fault span so trace dumps show what faults
// the workload survived. Link faults have no invocation context at the
// transport layer, so these are standalone root spans; FaaS faults
// additionally tag the live faas.invoke span in the platform.
func (e *Engine) markerSpan(kind, link string) {
	if e.tracer == nil {
		return
	}
	_, sp := e.tracer.Start(context.Background(), telemetry.SpanChaosFault)
	sp.SetAttr(telemetry.AttrChaos, kind)
	sp.SetAttr(telemetry.AttrChaosLink, link)
	sp.End()
}
