package crucial

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/client"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/faas"
	"crucial/internal/netsim"
	"crucial/internal/storage/s3sim"
	"crucial/internal/telemetry"
)

// RunnerFunction is the name of the generic serverless function the
// runtime deploys: it decodes a Runnable, binds its shared-object proxies
// to the DSO layer, and runs it (paper Section 5).
const RunnerFunction = "crucial-runner"

// RebalancePolicy configures the telemetry-driven elastic resharding loop
// (DESIGN.md §5g): how often the coordinator node scans the cluster's
// per-object windowed load, what counts as a sustained heavy hitter, and
// how aggressively hot objects are live-migrated onto the least-loaded
// nodes. It is an alias of core.RebalancePolicy, the single policy type
// threaded through Options.Rebalance, cluster.Options.Rebalance and
// server.Config.Rebalance. The zero value disables rebalancing.
type RebalancePolicy = core.RebalancePolicy

// DefaultRebalancePolicy returns the tested resharding defaults with the
// loop enabled (2s scans, 200 ops/s hot threshold at 4× the mean,
// sustained over 2 scans, 30s per-object cooldown). A convenience
// re-export of core.DefaultRebalancePolicy.
func DefaultRebalancePolicy() RebalancePolicy { return core.DefaultRebalancePolicy() }

// DurabilityPolicy configures the durability tier (DESIGN.md §5h): every
// DSO node appends committed mutations to a write-ahead log in cold
// storage (group-fsynced every SyncEvery appends), checkpoints object
// snapshots every SnapshotInterval, and — after a crash of any subset of
// nodes, up to the whole cluster — rebuilds its state from cold storage
// alone on restart. It is an alias of core.DurabilityPolicy, the single
// policy type threaded through Options.Durability, cluster.Options and
// server.Config. The zero value disables the tier entirely.
type DurabilityPolicy = core.DurabilityPolicy

// DefaultDurabilityPolicy returns the tested durability defaults with the
// tier enabled (group fsync every 64 appends, 2s snapshot cadence, 64 KiB
// WAL segments). A convenience re-export of core.DefaultDurabilityPolicy.
func DefaultDurabilityPolicy() DurabilityPolicy { return core.DefaultDurabilityPolicy() }

// Options configures a local runtime: an in-process FaaS platform plus an
// in-process DSO cluster wired over an in-memory network.
type Options struct {
	// DSONodes is the storage node count (default 1).
	DSONodes int
	// RF is the replication factor for persistent objects (default 1).
	RF int
	// Profile injects simulated service latencies (default none; use
	// netsim.AWS2019(scale) for paper-like behaviour).
	Profile *netsim.Profile
	// Registry supplies object types (default: built-ins). Add custom
	// types before building the runtime.
	Registry *TypeRegistry
	// FunctionMemoryMB sizes the runner function (default 1792, the
	// paper's 1-vCPU setting).
	FunctionMemoryMB int
	// FunctionTimeout is the modeled execution limit (default 15 min).
	FunctionTimeout time.Duration
	// Concurrency caps simultaneous function executions (default 1000).
	Concurrency int
	// FailureRate injects random invocation failures for fault-tolerance
	// experiments.
	FailureRate float64
	// DefaultRetry is the retry policy applied by NewThread.
	DefaultRetry RetryPolicy
	// LeaseTTL, when positive, enables the lease-based read path on every
	// DSO node (DESIGN.md §5d): read-only methods (RegisterReadOnlyMethods)
	// are served from client caches or the primary's local fast path
	// instead of taking an SMR ordering round. Writes
	// synchronously invalidate outstanding leases, preserving
	// linearizability. Zero (the default) disables the read path entirely.
	LeaseTTL time.Duration
	// ClientCache, when true (and LeaseTTL is positive), attaches a
	// lease-based read cache to the runtime's DSO clients: cloud threads
	// and the master thread answer read-only calls on leased objects
	// locally, without any network round trip.
	ClientCache bool
	// Rebalance is the elastic resharding policy (DESIGN.md §5g): with
	// Enabled set (and telemetry on — the per-object trackers are the only
	// load signal), the DSO coordinator node watches cluster-wide windowed
	// object rates and live-migrates sustained heavy hitters onto the
	// least-loaded nodes, un-pinning them when they cool. The zero value
	// (the default) keeps placement purely hash-driven;
	// DefaultRebalancePolicy() enables it with tested defaults.
	Rebalance RebalancePolicy
	// Durability is the WAL-plus-snapshot durability tier (DESIGN.md §5h).
	// With Enabled set, the runtime provisions a simulated cold object
	// store shared by every DSO node; each node logs its committed
	// mutations there before acknowledging and checkpoints object
	// snapshots in the background, so state survives a crash of the whole
	// cluster. The zero value (the default) keeps state purely in memory;
	// DefaultDurabilityPolicy() enables the tier with tested defaults.
	Durability DurabilityPolicy
	// Statefun tunes the stateful-functions layer (DESIGN.md §5i):
	// dispatch concurrency, idle-instance GC and mailbox
	// capacity. The layer itself boots lazily on the first
	// DeployStatefulFunction; the zero value uses tested defaults.
	Statefun StatefunOptions
	// Telemetry, when non-nil, turns on end-to-end instrumentation: every
	// layer (cloud threads, FaaS platform, DSO client and servers) records
	// spans and metrics into this one bundle. Nil (the default) disables
	// all instrumentation at zero cost. Use telemetry.New().
	Telemetry *telemetry.Telemetry
	// EnableTelemetry builds a private telemetry bundle when Telemetry is
	// nil, so callers can opt in without importing internal/telemetry.
	// Setting the CRUCIAL_TELEMETRY environment variable to 1/true has the
	// same effect, letting experiments toggle instrumentation per run.
	EnableTelemetry bool
	// TelemetrySpanCapacity sizes the tracer's span ring when the runtime
	// builds the bundle itself (via EnableTelemetry or CRUCIAL_TELEMETRY);
	// it is ignored when an explicit Telemetry bundle is supplied. Zero
	// means telemetry.DefaultSpanCapacity (4096). The environment variable
	// CRUCIAL_SPAN_CAPACITY overrides a zero value. Memory bound: the ring
	// holds at most capacity spans at roughly 250 B each plus attribute and
	// timing maps, so the default ring tops out around 1–2 MB per process
	// and old spans are overwritten beyond that.
	TelemetrySpanCapacity int
}

// resolveTelemetry applies the enablement and capacity knobs: an explicit
// bundle always wins; otherwise EnableTelemetry or CRUCIAL_TELEMETRY builds
// one sized by TelemetrySpanCapacity or CRUCIAL_SPAN_CAPACITY.
func (o Options) resolveTelemetry() *telemetry.Telemetry {
	if o.Telemetry != nil {
		return o.Telemetry
	}
	if !o.EnableTelemetry && !envBool("CRUCIAL_TELEMETRY") {
		return nil
	}
	capacity := o.TelemetrySpanCapacity
	if capacity <= 0 {
		if v, err := strconv.Atoi(os.Getenv("CRUCIAL_SPAN_CAPACITY")); err == nil && v > 0 {
			capacity = v
		}
	}
	return telemetry.NewWithCapacity(capacity)
}

// envBool reports whether an environment variable is set to a truthy value.
func envBool(name string) bool {
	v, err := strconv.ParseBool(os.Getenv(name))
	return err == nil && v
}

// asColdStore converts the optional concrete store to the durability
// interface without producing a typed-nil interface value when the tier
// is disabled.
func asColdStore(s *s3sim.Store) durability.Storage {
	if s == nil {
		return nil
	}
	return s
}

// Runtime is a complete local Crucial deployment: the FaaS platform
// executing cloud threads and the DSO cluster holding shared state.
type Runtime struct {
	platform *faas.Platform
	clu      *cluster.Cluster

	// fnClient is the DSO connection used inside function containers;
	// masterClient is the client application's own connection (Fig. 1:
	// the client has access to the same state).
	fnClient     *client.Client
	masterClient *client.Client

	functionName string
	defaultRetry RetryPolicy
	profile      *netsim.Profile
	coldStore    *s3sim.Store

	// Telemetry handles; nil/no-op when Options.Telemetry was unset.
	tel          *telemetry.Telemetry
	instrumented bool
	tracer       *telemetry.Tracer
	cSpawns      *telemetry.Counter
	cRetries     *telemetry.Counter
	hLifetime    *telemetry.Histogram

	threadSeq atomic.Int64

	// Stateful-functions layer (statefun.go), built lazily on the first
	// DeployStatefulFunction.
	sfMu   sync.Mutex
	sf     *statefunState
	sfOpts StatefunOptions
}

// NewLocalRuntime boots the platform and cluster.
func NewLocalRuntime(opts Options) (*Runtime, error) {
	if opts.Profile == nil {
		opts.Profile = netsim.Zero()
	}
	opts.Telemetry = opts.resolveTelemetry()
	var coldStore *s3sim.Store
	if opts.Durability.Enabled {
		var metrics *telemetry.Registry
		if opts.Telemetry != nil {
			metrics = opts.Telemetry.Metrics()
		}
		coldStore = s3sim.New(s3sim.Options{Profile: opts.Profile, Metrics: metrics})
	}
	clu, err := cluster.StartLocal(cluster.Options{
		Nodes:       opts.DSONodes,
		RF:          opts.RF,
		Profile:     opts.Profile,
		Registry:    opts.Registry,
		Telemetry:   opts.Telemetry,
		LeaseTTL:    opts.LeaseTTL,
		ClientCache: opts.ClientCache && opts.LeaseTTL > 0,
		Rebalance:   opts.Rebalance,
		Durability:  opts.Durability,
		ColdStore:   asColdStore(coldStore),
	})
	if err != nil {
		return nil, fmt.Errorf("crucial: start DSO cluster: %w", err)
	}

	rt := &Runtime{
		clu:          clu,
		functionName: RunnerFunction,
		defaultRetry: opts.DefaultRetry,
		profile:      opts.Profile,
		coldStore:    coldStore,
		tel:          opts.Telemetry,
		sfOpts:       opts.Statefun,
	}
	if opts.Telemetry != nil {
		rt.instrumented = true
		rt.tracer = opts.Telemetry.Tracer()
		m := opts.Telemetry.Metrics()
		rt.cSpawns = m.Counter(telemetry.MetThreadSpawns)
		rt.cRetries = m.Counter(telemetry.MetThreadRetries)
		rt.hLifetime = m.Histogram(telemetry.HistThreadLifetime)
	}
	rt.platform = faas.NewPlatform(faas.Options{
		Profile:     opts.Profile,
		Concurrency: opts.Concurrency,
		Telemetry:   opts.Telemetry,
	})
	if rt.fnClient, err = clu.NewClient(); err != nil {
		_ = clu.Close()
		return nil, err
	}
	if rt.masterClient, err = clu.NewClient(); err != nil {
		_ = rt.fnClient.Close()
		_ = clu.Close()
		return nil, err
	}
	err = rt.platform.Deploy(RunnerFunction, rt.runnerHandler, faas.FunctionConfig{
		MemoryMB:    opts.FunctionMemoryMB,
		Timeout:     opts.FunctionTimeout,
		FailureRate: opts.FailureRate,
	})
	if err != nil {
		_ = rt.Close()
		return nil, err
	}
	return rt, nil
}

// runnerHandler is the generic function body: decode, weave, run.
func (rt *Runtime) runnerHandler(ctx context.Context, payload []byte) ([]byte, error) {
	env, err := decodeThreadEnv(payload)
	if err != nil {
		return nil, err
	}
	BindShared(rt.fnClient, env.R)
	tc := &TC{ctx: ctx, threadID: env.ID, invoker: rt.fnClient}
	if err := env.R.Run(tc); err != nil {
		// The return payload is empty unless an error occurs; errors are
		// re-thrown to the invoker (paper Section 5).
		return nil, err
	}
	return nil, nil
}

// Bind attaches proxies used by the application's master thread (outside
// any cloud function) to the runtime's own DSO client, e.g. to read the
// final counter after joining all threads (Listing 1, line 25).
func (rt *Runtime) Bind(targets ...any) {
	BindShared(rt.masterClient, targets...)
}

// Invoker returns the master thread's DSO client.
func (rt *Runtime) Invoker() core.Invoker { return rt.masterClient }

// Platform exposes the FaaS platform (stats, prewarming, extra function
// deployments).
func (rt *Runtime) Platform() *faas.Platform { return rt.platform }

// Cluster exposes the DSO cluster (membership experiments).
func (rt *Runtime) Cluster() *cluster.Cluster { return rt.clu }

// Profile returns the latency profile in effect.
func (rt *Runtime) Profile() *netsim.Profile { return rt.profile }

// ColdStore returns the simulated cold object store backing the
// durability tier, or nil when Options.Durability was disabled. Useful
// for inspecting request/byte totals (storage cost accounting) and for
// restarting a cluster against the same durable state in experiments.
func (rt *Runtime) ColdStore() *s3sim.Store { return rt.coldStore }

// Telemetry returns the runtime's telemetry bundle (nil when disabled).
func (rt *Runtime) Telemetry() *telemetry.Telemetry { return rt.tel }

// Metrics snapshots every counter, gauge and latency histogram recorded so
// far across all layers. The snapshot is empty when telemetry is disabled.
func (rt *Runtime) Metrics() telemetry.Snapshot { return rt.tel.Snapshot() }

// Trace returns the recorded spans, oldest first (empty when telemetry is
// disabled). Spans from one logical cloud-thread invocation share a
// TraceID: thread → faas.invoke → client.invoke → server.invoke.
func (rt *Runtime) Trace() []telemetry.SpanData { return rt.tel.Tracer().Spans() }

// HotObjects snapshots the per-object heavy-hitter tracker: the top-K
// most-touched shared objects with their call/invoke/apply counts,
// read/write mix, payload bytes and latency percentiles, sorted hottest
// first (empty when telemetry is disabled). See DESIGN.md §5f.
func (rt *Runtime) HotObjects() telemetry.ObjectsSnapshot {
	return rt.tel.Objects().Snapshot()
}

// Prewarm provisions n warm runner containers, excluding cold starts from
// a measurement (the paper's global barrier before measuring).
func (rt *Runtime) Prewarm(n int) error {
	return rt.platform.Prewarm(rt.functionName, n)
}

// Close tears the runtime down.
func (rt *Runtime) Close() error {
	rt.closeStatefun()
	var firstErr error
	if rt.fnClient != nil {
		if err := rt.fnClient.Close(); err != nil {
			firstErr = err
		}
	}
	if rt.masterClient != nil {
		if err := rt.masterClient.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if rt.clu != nil {
		if err := rt.clu.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
