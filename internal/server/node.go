// Package server implements a DSO node: the in-memory grid server that
// stores shared objects, executes shipped method calls under per-object
// monitors (linearizability + server-side blocking), replicates persistent
// objects through total-order multicast, and rebalances state on membership
// changes (paper Sections 4 and 5).
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/membership"
	"crucial/internal/netsim"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// RPC kinds multiplexed on node connections.
const (
	// KindInvoke is a client object invocation.
	KindInvoke uint8 = 1
	// KindPropose and KindFinal are Skeen protocol messages between nodes.
	KindPropose uint8 = 2
	KindFinal   uint8 = 3
	// KindTransfer pushes an object snapshot during rebalancing.
	KindTransfer uint8 = 4
	// KindPing is a health check.
	KindPing uint8 = 5
	// KindAbort drops an abandoned total-order message.
	KindAbort uint8 = 6
	// KindStats returns the node's counters and telemetry snapshot
	// (gob-encoded Snapshot) for dso-cli stats and cluster dashboards.
	KindStats uint8 = 7
	// KindTraceDump drains the node's span ring (gob-encoded
	// telemetry.Dump, with the node's wall clock for offset alignment) for
	// cluster-wide trace collection (dso-cli trace).
	KindTraceDump uint8 = 8
	// KindClock returns the node's wall clock (gob-encoded time.Time). The
	// trace collector estimates per-node clock offsets from this cheap,
	// symmetric round trip before draining spans.
	KindClock uint8 = 9
	// KindChaos carries a fault-injection command (gob-encoded ChaosCmd)
	// from dso-cli chaos to a node wired with a chaos engine.
	KindChaos uint8 = 10
	// KindFetch is a pull-on-miss: a replica asks a group peer for its copy
	// of an object (gob-encoded core.Ref in, fetchResp out) instead of
	// creating a fresh one when the hand-off transfer never arrived.
	KindFetch uint8 = 11
	// KindLease acquires or renews a lease on an object from its primary
	// (gob-encoded LeaseRequest in, LeaseResponse out): client caches get
	// a snapshot, followers get a version floor. See lease.go.
	KindLease uint8 = 12
	// KindLeaseRevoke is the primary telling a follower to stop serving
	// reads under its replica lease (gob-encoded leaseRevokeMsg), sent
	// synchronously before a mutation commits.
	KindLeaseRevoke uint8 = 13
	// KindCacheInvalidate is the primary telling a client cache to drop
	// its leased copy (gob-encoded InvalidateMsg). It is handled by the
	// client's invalidation listener, not by nodes.
	KindCacheInvalidate uint8 = 14
	// KindObjectStats returns the node's per-object heavy-hitter snapshot
	// (gob-encoded telemetry.ObjectsSnapshot) for dso-cli top and the
	// cluster collector. Uninstrumented nodes return an empty snapshot.
	KindObjectStats uint8 = 15
	// KindMigrate asks an object's primary to live-migrate it (gob-encoded
	// migrateCmd): fence, revoke leases, quiesce, push the snapshot to the
	// new replica set, then flip the placement directive. Sent by the
	// rebalancer and dso-cli migrate. See migrate.go.
	KindMigrate uint8 = 16
	// KindRebalanceStatus returns the node's resharding-plane status
	// (gob-encoded RebalanceStatus) for dso-cli rebalance status.
	KindRebalanceStatus uint8 = 17
	// KindView returns the node's installed membership view (gob-encoded
	// membership.View) — members, addresses, AND the directive table.
	// External clients (client.RemoteViews) refresh through it so keys
	// the rebalancer pinned keep routing after a directive flip; a static
	// member list alone goes permanently stale the first time placement
	// diverges from the hash ring.
	KindView uint8 = 18
	// KindDirectivesSync carries a directive table (gob-encoded
	// ring.Directives) between nodes. Processes with private directories
	// (dso-server) adopt a strictly newer table into their own view, so a
	// placement flip executed on one primary reaches every member: the
	// migrating primary broadcasts after the flip, and the rebalance
	// coordinator re-broadcasts each scan as anti-entropy. Shared-
	// directory deployments (in-process clusters) see only no-ops — the
	// table is never newer than their own.
	KindDirectivesSync uint8 = 19
)

// Config wires one node into a cluster.
type Config struct {
	// ID is the cluster-unique node name; Addr is where it listens on the
	// transport.
	ID   ring.NodeID
	Addr string
	// Transport carries all node traffic (TCP or in-memory).
	Transport rpc.Transport
	// Registry resolves object types. Usually objects.BuiltinRegistry()
	// plus application types.
	Registry *core.Registry
	// Directory is the membership service of the cluster.
	Directory *membership.Directory
	// Profile injects simulated network latencies for inter-node traffic.
	// Client-side latency is injected by the DSO client.
	Profile *netsim.Profile
	// RF is the replication factor applied to persistent objects.
	RF int
	// ServiceTime and ServiceConcurrency, when both set, model the node's
	// finite processing capacity: at most ServiceConcurrency invocations
	// at a time each pay ServiceTime (scaled) of node CPU before
	// executing. The elasticity experiment (Fig. 8) uses this so that
	// losing one of three nodes costs a third of the fleet's capacity, as
	// it would in a real deployment; by default it is off.
	ServiceTime        time.Duration
	ServiceConcurrency int
	// LeaseTTL, when positive, enables the lease-based read path on this
	// node: it grants client cache leases and follower read leases of this
	// duration, serves read-only invocations locally at the primary
	// without an SMR round, and fences mutations behind synchronous lease
	// revocation (see lease.go and DESIGN.md §5d). Zero disables leases —
	// every call takes the classic ownership path. Shorter TTLs shrink the
	// worst-case write stall behind an unreachable lease holder; longer
	// TTLs amortize more reads per grant.
	LeaseTTL time.Duration
	// Write is the group-commit policy for the SMR write path (DESIGN.md
	// §5e): with WritePolicy.Batching() true, concurrent mutations of one
	// object coalesce into shared ordering rounds of up to MaxBatch
	// stamped invocations, with up to Pipeline rounds in flight per
	// object. The zero value runs every write as a round of one, inline.
	// The same struct configures every layer (crucial.Options.Write,
	// cluster.Options.Write, client.Config.Write, dso-server flags).
	Write core.WritePolicy
	// Rebalance configures the telemetry-driven elastic resharding loop
	// (DESIGN.md §5g): with Enabled set (and a Telemetry bundle, its only
	// load signal), the coordinator node periodically merges the cluster's
	// per-object windowed rates and live-migrates sustained heavy hitters
	// onto the least-loaded nodes via placement directives. The zero value
	// keeps placement purely hash-driven.
	Rebalance core.RebalancePolicy
	// Durability configures the cold-storage durability tier (DESIGN.md
	// §5h): with Enabled set (and a ColdStore wired), every committed SMR
	// delivery this node applies is logged to a per-node write-ahead log,
	// acks wait on the coordinator's record reaching storage, and a
	// background snapshotter checkpoints object state so a restart — even
	// a whole-cluster one — recovers every acknowledged write from the
	// store alone. The zero value keeps the in-memory-only behavior.
	Durability core.DurabilityPolicy
	// ColdStore is the durable object store behind the WAL and the
	// checkpoints (s3sim in simulation). Required when Durability.Enabled;
	// nil disables the tier regardless of policy.
	ColdStore durability.Storage
	// PeerCallTimeout bounds each inter-node RPC attempt (Skeen control
	// messages, state transfers). Without it, a frame lost in the network
	// blocks the coordinator forever and its orphaned proposal wedges the
	// total-order queue on every replica. Zero means the 2s default;
	// negative disables the bound.
	PeerCallTimeout time.Duration
	// Telemetry, when non-nil, records server-side spans (attached to the
	// caller's trace via the invocation's TraceContext), execution and
	// monitor-wait histograms, SMR round counters and an in-flight gauge.
	Telemetry *telemetry.Telemetry
	// Chaos, when non-nil, lets KindChaos commands steer this fault
	// injection engine (partition/heal). The engine must be the one whose
	// endpoints carry this deployment's traffic for the commands to bite.
	Chaos *chaos.Engine
	// OnChaosLifecycle, when non-nil, handles KindChaos "crash" and
	// "restart" commands. It runs outside the RPC handler (the command is
	// acknowledged first — crashing tears down the RPC server, which
	// would otherwise deadlock waiting for its own handler).
	OnChaosLifecycle func(op string) error
}

func (c Config) validate() error {
	switch {
	case c.ID == "":
		return errors.New("server: config needs an ID")
	case c.Addr == "":
		return errors.New("server: config needs an Addr")
	case c.Transport == nil:
		return errors.New("server: config needs a Transport")
	case c.Registry == nil:
		return errors.New("server: config needs a Registry")
	case c.Directory == nil:
		return errors.New("server: config needs a Directory")
	case c.RF < 1:
		return errors.New("server: RF must be >= 1")
	}
	return nil
}

// Stats are monotonic node counters.
type Stats struct {
	Invocations uint64
	Transfers   uint64
	SMROps      uint64
}

// Node is one DSO server.
type Node struct {
	cfg     Config
	profile *netsim.Profile

	rpcServer *rpc.Server
	listener  net.Listener

	// view state
	viewMu      sync.RWMutex
	view        membership.View
	ringCur     *ring.Ring
	unsubscribe func()

	// object table
	objMu   sync.Mutex
	objects map[core.Ref]*entry

	// in-flight pull-on-miss repairs, singleflight per ref (see selfHeal)
	pullMu  sync.Mutex
	pulling map[core.Ref]bool

	// refs whose local copy is behind the committed history because a
	// delivery was skipped for want of a base copy (see markStale)
	staleMu   sync.Mutex
	staleRefs map[core.Ref]uint64
	staleSeq  uint64

	// peer connections
	peerMu sync.Mutex
	peers  map[ring.NodeID]*rpc.Client

	// replication
	to          *totalorder.Node
	inflight    *inflightTracker
	peerTimeout time.Duration
	seq         atomic.Uint64

	// rounds holds every ordering round this node is coordinating, from
	// before its multicast until its runRound returns (see round).
	roundMu sync.Mutex
	rounds  map[totalorder.MsgID]*round

	// applied holds this node's member-side round outcomes awaiting their
	// FINAL reply, the other half of the fork check (see finalResp).
	applyMu sync.Mutex
	applied map[totalorder.MsgID]finalResp

	// batcher is the group-commit submit queue, nil when Config.Write
	// disables batching: every round is then a round of one, run inline.
	batcher *writeBatcher

	// leases is the lease table (nil when Config.LeaseTTL is zero: the
	// read path and the write hooks are disabled at zero cost).
	leases *leaseTable

	// svcGate, when non-nil, is the modeled capacity gate (see Config).
	svcGate chan struct{}

	// migrating holds the live-migration fences (ref → deadline): writes
	// and lease grants bounce with ErrRebalancing while a hand-off is in
	// flight (see migrate.go). rebal is the resharding loop, nil unless
	// Config.Rebalance enables it.
	migrateMu sync.Mutex
	migrating map[core.Ref]time.Time
	rebal     *rebalancer

	migrations       atomic.Uint64
	migrationsFailed atomic.Uint64
	rebalScans       atomic.Uint64

	// dur is the durability tier runtime (WAL + snapshotter), nil when
	// Config.Durability or Config.ColdStore leaves the tier off.
	dur *durabilityState

	closed    atomic.Bool
	closeOnce sync.Once

	invocations atomic.Uint64
	transfers   atomic.Uint64
	smrOps      atomic.Uint64

	log *slog.Logger

	// Telemetry handles; nil (no-op) when no bundle was configured.
	instrumented    bool
	tracer          *telemetry.Tracer
	metrics         *telemetry.Registry
	objTrack        *telemetry.ObjectTracker
	bundleTrack     *telemetry.ObjectTracker
	cInvocations    *telemetry.Counter
	cSMRRounds      *telemetry.Counter
	cTransfers      *telemetry.Counter
	cTransfersStale *telemetry.Counter
	cPulls          *telemetry.Counter
	cDedupHits      *telemetry.Counter
	cDedupEvictions *telemetry.Counter
	gInflight       *telemetry.Gauge
	hExec           *telemetry.Histogram
	hMonitorWait    *telemetry.Histogram

	cLeaseGrants      *telemetry.Counter
	cLeaseRefusals    *telemetry.Counter
	cLeaseRevokes     *telemetry.Counter
	cLeaseExpiryWaits *telemetry.Counter
	cFollowerReads    *telemetry.Counter
	cLocalReads       *telemetry.Counter

	cBatches   *telemetry.Counter
	hBatchSize *telemetry.Histogram

	cMigrations       *telemetry.Counter
	cMigrationsFailed *telemetry.Counter
	cRebalScans       *telemetry.Counter
}

// Start launches the node: it listens on cfg.Addr, joins the directory and
// begins serving. Close (graceful) or Crash (abrupt) stop it.
func Start(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Profile == nil {
		cfg.Profile = netsim.Zero()
	}
	n := &Node{
		cfg:     cfg,
		profile: cfg.Profile,
		objects: make(map[core.Ref]*entry),
		peers:   make(map[ring.NodeID]*rpc.Client),
		rounds:  make(map[totalorder.MsgID]*round),
		applied: make(map[totalorder.MsgID]finalResp),
		log:     telemetry.Logger(telemetry.CompServer).With("node", string(cfg.ID)),
	}
	if cfg.ServiceTime > 0 && cfg.ServiceConcurrency > 0 {
		n.svcGate = make(chan struct{}, cfg.ServiceConcurrency)
	}
	if cfg.Telemetry != nil {
		n.instrumented = true
		n.tracer = cfg.Telemetry.Tracer()
		n.metrics = cfg.Telemetry.Metrics()
		// Per-NODE tracker, deliberately not the bundle's shared one: this
		// node's KindObjectStats answer must describe the load IT serves.
		// In-process clusters share one Telemetry bundle across nodes, and
		// a shared tracker would make every member report the whole
		// cluster's traffic — inflating merged snapshots N-fold and
		// blinding the rebalancer's per-node load model. The bundle's own
		// tracker keeps the process-wide view (Runtime.HotObjects), so
		// server-side observations are mirrored into it as well.
		n.objTrack = telemetry.NewObjectTracker(0)
		n.bundleTrack = cfg.Telemetry.Objects()
		n.cInvocations = n.metrics.Counter(telemetry.MetServerInvocations)
		n.cSMRRounds = n.metrics.Counter(telemetry.MetServerSMRRounds)
		n.cTransfers = n.metrics.Counter(telemetry.MetServerTransfers)
		n.cTransfersStale = n.metrics.Counter(telemetry.MetServerTransfersStale)
		n.cPulls = n.metrics.Counter(telemetry.MetServerPulls)
		n.cDedupHits = n.metrics.Counter(telemetry.MetServerDedupHits)
		n.cDedupEvictions = n.metrics.Counter(telemetry.MetServerDedupEvictions)
		n.gInflight = n.metrics.Gauge(telemetry.MetServerInflight)
		n.hExec = n.metrics.Histogram(telemetry.HistServerExec)
		n.hMonitorWait = n.metrics.Histogram(telemetry.HistServerMonitorWait)
	}
	// The lease counters are resolved unconditionally: the registry and
	// the counters it returns are nil-safe, so uninstrumented nodes pay a
	// no-op Inc rather than a nil check on every lease-path branch.
	n.cLeaseGrants = n.metrics.Counter(telemetry.MetServerLeaseGrants)
	n.cLeaseRefusals = n.metrics.Counter(telemetry.MetServerLeaseRefusals)
	n.cLeaseRevokes = n.metrics.Counter(telemetry.MetServerLeaseRevokes)
	n.cLeaseExpiryWaits = n.metrics.Counter(telemetry.MetServerLeaseExpiryWts)
	n.cFollowerReads = n.metrics.Counter(telemetry.MetServerFollowerReads)
	n.cLocalReads = n.metrics.Counter(telemetry.MetServerLocalReads)
	n.cBatches = n.metrics.Counter(telemetry.MetServerBatches)
	n.hBatchSize = n.metrics.Histogram(telemetry.HistServerBatchSize)
	n.cMigrations = n.metrics.Counter(telemetry.MetServerMigrations)
	n.cMigrationsFailed = n.metrics.Counter(telemetry.MetServerMigrationsFailed)
	n.cRebalScans = n.metrics.Counter(telemetry.MetServerRebalanceScans)
	if cfg.LeaseTTL > 0 {
		n.leases = newLeaseTable(n, cfg.LeaseTTL)
	}
	if cfg.Write.Batching() {
		n.batcher = newWriteBatcher(n, cfg.Write)
	}
	n.to = totalorder.NewNode(string(cfg.ID), n.deliver)
	switch {
	case cfg.PeerCallTimeout > 0:
		n.peerTimeout = cfg.PeerCallTimeout
	case cfg.PeerCallTimeout == 0:
		n.peerTimeout = 2 * time.Second
	}
	if n.peerTimeout > 0 {
		// The orphan TTL must comfortably exceed the window in which a
		// live coordinator could still finalize or abort (propose timeout
		// plus abort retries), or the GC itself would drop in-flight ops.
		n.to.SetPendingTTL(10 * n.peerTimeout)
	}
	n.inflight = newInflightTracker(10 * n.peerTimeout)

	l, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	n.listener = l
	n.rpcServer = rpc.NewServer(n.handle)
	go func() { _ = n.rpcServer.Serve(l) }()

	// Recover from cold storage BEFORE joining: the node must enter the
	// view already holding its checkpointed objects and replayed log, and
	// with the recovered directive table installed, or peers would route
	// and anti-entropy against an empty impostor.
	if err := n.initDurability(); err != nil {
		_ = n.rpcServer.Close()
		return nil, fmt.Errorf("server: durability recovery: %w", err)
	}

	// Join after the listener is live so peers can reach us immediately,
	// then track view changes for rebalancing.
	cfg.Directory.Join(cfg.ID, cfg.Addr)
	n.unsubscribe = cfg.Directory.Subscribe(n.onView)
	if cfg.Rebalance.Enabled {
		n.rebal = newRebalancer(n, cfg.Rebalance)
		n.rebal.start()
	}
	n.log.Info("node started", "addr", cfg.Addr, "rf", cfg.RF,
		"instrumented", n.instrumented, "rebalance", cfg.Rebalance.Enabled)
	return n, nil
}

// ID returns the node name.
func (n *Node) ID() ring.NodeID { return n.cfg.ID }

// Addr returns the listen address.
func (n *Node) Addr() string { return n.cfg.Addr }

// Stats returns a snapshot of the node counters.
func (n *Node) Stats() Stats {
	return Stats{
		Invocations: n.invocations.Load(),
		Transfers:   n.transfers.Load(),
		SMROps:      n.smrOps.Load(),
	}
}

// Snapshot is the full introspection payload served over KindStats: the
// classic counters plus the node's telemetry registry (empty when the node
// runs uninstrumented).
type Snapshot struct {
	ID      string
	Objects int
	Stats   Stats
	Metrics telemetry.Snapshot
}

// Snapshot captures the node's current state.
func (n *Node) Snapshot() Snapshot {
	return Snapshot{
		ID:      string(n.cfg.ID),
		Objects: n.DebugObjectCount(),
		Stats:   n.Stats(),
		Metrics: n.metrics.Snapshot(),
	}
}

// ObjectStats captures the node's per-object heavy-hitter snapshot, the
// payload of KindObjectStats. Uninstrumented nodes report zero objects.
func (n *Node) ObjectStats() telemetry.ObjectsSnapshot {
	snap := n.objTrack.Snapshot()
	snap.Node = string(n.cfg.ID)
	return snap
}

// TraceDump captures the node's retained spans plus its wall clock, the
// payload of KindTraceDump. Uninstrumented nodes dump zero spans.
func (n *Node) TraceDump() telemetry.Dump {
	return telemetry.Dump{
		Node:  string(n.cfg.ID),
		Now:   time.Now(),
		Spans: n.tracer.Spans(),
	}
}

// Close leaves the cluster gracefully: the directory installs a new view,
// surviving nodes receive this node's objects via rebalancing, and then the
// node shuts down.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		// Leaving triggers onView on *other* nodes; this node pushes its
		// state away in its own onView callback for the leave view.
		n.cfg.Directory.Leave(n.cfg.ID)
		err = n.shutdown()
	})
	return err
}

// Crash stops the node abruptly without handing off state, simulating a
// server failure (Fig. 8). The caller is responsible for telling the
// directory (membership.Directory.Crash) — exactly like a real failure
// detector noticing after the fact.
func (n *Node) Crash() error {
	var err error
	n.closeOnce.Do(func() {
		err = n.shutdown()
	})
	return err
}

func (n *Node) shutdown() error {
	n.closed.Store(true)
	if n.rebal != nil {
		// Stop the scan loop before tearing down the RPC plane; an
		// in-flight scan's peer calls fail fast against closed peers.
		n.rebal.stopWait()
	}
	// Abort FINAL handlers parked in WaitDelivered (see totalorder.Close):
	// they hold RPC handler slots, and waiting out their full bound here
	// would stall the shutdown — and everything sequenced after it — for
	// seconds.
	n.to.Close()
	if n.batcher != nil {
		// Queued-but-unflushed writes fail with ErrStopped; rounds already
		// in flight run out against the closing transport under their own
		// deadline.
		n.batcher.close()
	}
	// Stop the snapshotter and abandon unflushed WAL records (nothing
	// unflushed was acked); the next start recovers from the store.
	n.closeDurability()
	if n.unsubscribe != nil {
		n.unsubscribe()
	}
	// Wake every blocked synchronization call with ErrStopped.
	_, entries := n.residents()
	for _, e := range entries {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	}
	if n.leases != nil {
		n.leases.close()
	}
	err := n.rpcServer.Close()
	n.peerMu.Lock()
	for _, c := range n.peers {
		_ = c.Close()
	}
	n.peers = make(map[ring.NodeID]*rpc.Client)
	n.peerMu.Unlock()
	n.log.Info("node stopped",
		"invocations", n.invocations.Load(), "transfers", n.transfers.Load())
	return err
}

// currentView returns the node's installed view and ring.
func (n *Node) currentView() (membership.View, *ring.Ring) {
	n.viewMu.RLock()
	defer n.viewMu.RUnlock()
	return n.view, n.ringCur
}

// handle dispatches one RPC request.
func (n *Node) handle(ctx context.Context, kind uint8, payload []byte) ([]byte, error) {
	if n.closed.Load() {
		return nil, core.ErrStopped
	}
	switch kind {
	case KindInvoke:
		return n.handleInvoke(ctx, payload)
	case KindPropose:
		return n.handlePropose(payload)
	case KindFinal:
		return n.handleFinal(payload)
	case KindTransfer:
		return n.handleTransfer(payload)
	case KindAbort:
		return n.handleAbort(payload)
	case KindStats:
		return core.EncodeValue(n.Snapshot())
	case KindObjectStats:
		return core.EncodeValue(n.ObjectStats())
	case KindTraceDump:
		return core.EncodeValue(n.TraceDump())
	case KindClock:
		return core.EncodeValue(time.Now())
	case KindChaos:
		return n.handleChaos(payload)
	case KindFetch:
		return n.handleFetch(payload)
	case KindLease:
		return n.handleLease(payload)
	case KindLeaseRevoke:
		return n.handleLeaseRevoke(payload)
	case KindMigrate:
		return n.handleMigrate(ctx, payload)
	case KindRebalanceStatus:
		return n.handleRebalanceStatus()
	case KindView:
		v, _ := n.currentView()
		return core.EncodeValue(v)
	case KindDirectivesSync:
		return n.handleDirectivesSync(payload)
	case KindPing:
		return []byte("pong"), nil
	default:
		return nil, fmt.Errorf("server: unknown rpc kind %d", kind)
	}
}

// handleInvoke executes a client invocation, choosing the direct path for
// ephemeral objects and the SMR path for persistent ones.
func (n *Node) handleInvoke(ctx context.Context, payload []byte) ([]byte, error) {
	inv, err := core.DecodeInvocation(payload)
	if err != nil {
		return nil, err
	}
	// Re-derive the read-only flag from this node's own registry rather
	// than trusting the wire: the flag steers execution past the write
	// machinery (SMR round, dedup, version bump, lease revocation), so a
	// stale or hostile client must not smuggle a mutating method through
	// it — and a thin client that never registered the classification
	// (dso-cli, old binaries) still gets the read fast path, since
	// re-executing or follower-serving a genuine read is always safe.
	inv.ReadOnly = core.IsReadOnlyMethod(inv.Ref.Type, inv.Method)
	n.invocations.Add(1)
	// Per-object load accounting (DESIGN.md §5f): one observation per
	// handled invocation with the read/write class, end-to-end handler
	// latency and request payload size. Nil tracker is a no-op.
	if n.objTrack != nil {
		start := time.Now()
		defer func() {
			k := telemetry.ObjectKey{Type: inv.Ref.Type, Key: inv.Ref.Key}
			d := time.Since(start)
			n.objTrack.ObserveInvoke(k, inv.ReadOnly, d, len(payload))
			n.bundleTrack.ObserveInvoke(k, inv.ReadOnly, d, len(payload))
		}()
	}
	// Telemetry: continue the client's trace across the RPC boundary via
	// the invocation's TraceContext, and track queue depth (in-flight
	// invocations on this node).
	if n.instrumented {
		n.cInvocations.Inc()
		n.gInflight.Add(1)
		defer n.gInflight.Add(-1)
		var span *telemetry.Span
		ctx, span = n.tracer.StartRemote(ctx, telemetry.SpanServerInvoke,
			telemetry.SpanContext{TraceID: inv.Trace.TraceID, SpanID: inv.Trace.SpanID})
		span.SetAttr(telemetry.AttrObjectType, inv.Ref.Type)
		span.SetAttr(telemetry.AttrMethod, inv.Method)
		if inv.Persist && n.cfg.RF > 1 {
			span.SetAttr(telemetry.AttrPath, "smr")
		} else {
			span.SetAttr(telemetry.AttrPath, "local")
		}
		defer span.End()
	}
	if n.svcGate != nil {
		select {
		case n.svcGate <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		err := netsim.Sleep(ctx, n.profile.Scaled(n.cfg.ServiceTime))
		<-n.svcGate
		if err != nil {
			return nil, err
		}
	}

	var results []any
	var callErr error
	switch {
	case n.migrationFenced(inv.Ref):
		// Mid-migration: the copy is about to move and the directive flip
		// will change the primary. Bounce retryably; the client refreshes
		// its view and lands on the new home (see migrate.go).
		callErr = fmt.Errorf("%w: %s mid-migration on %s",
			core.ErrRebalancing, inv.Ref, n.cfg.ID)
	case inv.Persist && n.cfg.RF > 1:
		results, callErr = n.invokeReplicated(ctx, inv)
	default:
		results, callErr = n.invokeLocal(ctx, inv)
	}
	resp := core.Response{Results: results, Err: core.EncodeError(callErr)}
	// Encode into a pooled buffer; the rpc server recycles it after the
	// response frame is written (see rpc.Handler's ownership contract).
	return core.AppendResponse(rpc.GetBuffer(0), resp)
}

// peer returns (dialing if needed) the RPC client for a peer node.
func (n *Node) peer(id ring.NodeID) (*rpc.Client, error) {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if c, ok := n.peers[id]; ok {
		return c, nil
	}
	view, _ := n.currentView()
	addr, ok := view.Addrs[id]
	if !ok {
		return nil, fmt.Errorf("server: no address for peer %s in view %d", id, view.ID)
	}
	conn, err := n.cfg.Transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial peer %s: %w", id, err)
	}
	c := rpc.NewClient(conn)
	n.peers[id] = c
	return c, nil
}

// dropPeer discards a cached connection after an error so the next call
// redials.
func (n *Node) dropPeer(id ring.NodeID) {
	n.peerMu.Lock()
	if c, ok := n.peers[id]; ok {
		_ = c.Close()
		delete(n.peers, id)
	}
	n.peerMu.Unlock()
}
