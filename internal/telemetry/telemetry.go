package telemetry

// Telemetry bundles the tracer and metrics registry that one deployment
// (runtime, cluster, platform) shares. A nil *Telemetry is the disabled
// state: its accessors return nil, and every hook downstream degrades to a
// no-op.
type Telemetry struct {
	tracer  *Tracer
	metrics *Registry
	objects *ObjectTracker
}

// New returns an enabled telemetry bundle with a DefaultSpanCapacity span
// ring, an empty metrics registry and a DefaultObjectTopK object tracker.
func New() *Telemetry {
	return NewWithCapacity(0)
}

// NewWithCapacity sizes the span ring explicitly.
func NewWithCapacity(spanCapacity int) *Telemetry {
	return &Telemetry{
		tracer:  NewTracer(spanCapacity),
		metrics: NewRegistry(),
		objects: NewObjectTracker(0),
	}
}

// Tracer returns the span recorder (nil when disabled).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Metrics returns the metrics registry (nil when disabled).
func (t *Telemetry) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Objects returns the per-object heavy-hitter tracker (nil when
// disabled).
func (t *Telemetry) Objects() *ObjectTracker {
	if t == nil {
		return nil
	}
	return t.objects
}

// Snapshot captures the current metrics (empty when disabled).
func (t *Telemetry) Snapshot() Snapshot {
	return t.Metrics().Snapshot()
}

// Canonical metric names. Layers record under these so reports, bench JSON
// and dso-cli stats agree on vocabulary; per-object-type call latencies
// append the type name to MetClientCallPrefix.
const (
	// FaaS platform.
	MetFaaSInvocations = "faas.invocations"
	MetFaaSColdStarts  = "faas.cold_starts"
	MetFaaSFailures    = "faas.failures"
	MetFaaSTimeouts    = "faas.timeouts"
	MetFaaSThrottled   = "faas.throttled"
	MetFaaSBilledGBs   = "faas.billed_gb_seconds"
	MetFaaSInflight    = "faas.inflight"
	HistFaaSInvoke     = "faas.invoke"
	HistFaaSColdStart  = "faas.cold_start"
	HistFaaSQueueWait  = "faas.queue_wait"

	// Cloud-thread layer.
	MetThreadSpawns    = "thread.spawns"
	MetThreadRetries   = "thread.retries"
	HistThreadLifetime = "thread.lifetime"

	// DSO client.
	MetClientCalls      = "client.calls"
	MetClientReroutes   = "client.reroutes"
	HistClientRPC       = "client.rpc"
	MetClientCallPrefix = "client.call."

	// DSO server.
	MetServerInvocations  = "server.invocations"
	MetServerSMRRounds    = "server.smr_rounds"
	MetServerTransfers    = "server.transfers"
	MetServerInflight     = "server.inflight"
	HistServerExec        = "server.exec"
	HistServerMonitorWait = "server.monitor_wait"
	// At-most-once dedup (server side): replayed responses and window
	// evictions.
	MetServerDedupHits      = "server.dedup_hits"
	MetServerDedupEvictions = "server.dedup_evictions"
	// State-transfer safety: snapshots refused because they were not
	// strictly higher in their object's order than the local copy, and
	// copies adopted from peers by a pull or a primary's open instead of
	// being created fresh.
	MetServerTransfersStale = "server.transfers_stale"
	MetServerPulls          = "server.object_pulls"
	// Rounds a member refused because its copy had moved past the round's
	// predecessor on another history (a predecessor mismatch). A
	// fault-free run refuses none.
	MetServerForkRefusals = "server.fork_refusals"

	// Per-function FaaS fault accounting: the function name is appended,
	// e.g. "faas.failures.by_fn.trainer".
	MetFaaSFailurePrefix = "faas.failures.by_fn."
	MetFaaSTimeoutPrefix = "faas.timeouts.by_fn."

	// Client lease cache (read path). Exported on /metrics as
	// crucial_cache_{hits,misses,invalidations,lease_expiries,stale_grants}_total.
	// A hit is a read-only call answered from a locally leased copy; a
	// miss fell through to a remote invoke (no lease, refused grant, or
	// uncacheable method); an invalidation is a server-pushed revoke
	// (a write committed, or the view changed); an expiry is a read that
	// found its lease past due and had to re-acquire; a stale grant is one
	// the cache was given and discarded, because an invalidation that may
	// have revoked it got home first — a round trip paid for nothing, so a
	// rate near the grant rate means the cache is not caching.
	MetCacheHits          = "cache.hits"
	MetCacheMisses        = "cache.misses"
	MetCacheInvalidations = "cache.invalidations"
	MetCacheLeaseExpiries = "cache.lease_expiries"
	MetCacheStaleGrants   = "cache.stale_grants"

	// Server-side lease table: client cache grants handed out, grants
	// refused, synchronous revocations on the write path, writes that had
	// to sit out an unreachable holder's expiry or a post-view fence, and
	// read-only calls the primary served from its own copy without an SMR
	// round.
	MetServerLeaseGrants    = "server.lease_grants"
	MetServerLeaseRefusals  = "server.lease_refusals"
	MetServerLeaseRevokes   = "server.lease_revokes"
	MetServerLeaseExpiryWts = "server.lease_expiry_waits"
	MetServerLocalReads     = "server.local_reads"
	// MetServerFollowerReads is never incremented: followers no longer
	// serve reads. The benchmark harness still sums it; the next change to
	// the benchmark deletes it.
	MetServerFollowerReads = "server.follower_reads"

	// Group-commit write path (DESIGN.md §5e). batch_size is a unitless
	// size histogram — the *.size suffix selects value semantics, see
	// Histogram.ObserveValue — observing every replicated write round with
	// the writes it carried, 1 for an inline round, so its mean is
	// invocations per replicated write round (crucial_server_batch_size);
	// batches counts the rounds cut from a lane's queue
	// (crucial_server_batches_total); write_flushes counts completed frame
	// flushes on a DSO client's connections
	// (crucial_client_write_flushes_total), the transport-level half of
	// the same amortization story.
	MetServerBatches      = "server.batches"
	HistServerBatchSize   = "server.batch_size"
	MetClientWriteFlushes = "client.write_flushes"

	// Elastic resharding (DESIGN.md §5g). Migrations counts live
	// hot-object migrations this node coordinated to completion (the
	// directive flip landed); failed migrations aborted before the flip
	// and left placement untouched; scans counts rebalancer passes over
	// the merged cluster-wide heavy-hitter snapshots.
	MetServerMigrations       = "server.migrations"
	MetServerMigrationsFailed = "server.migrations_failed"
	MetServerRebalanceScans   = "server.rebalance_scans"

	// Durability tier (DESIGN.md §5h). WAL appends counts records written
	// to the open segment; fsyncs counts storage flushes (each a segment
	// PUT covering one group-commit of records); wal.bytes totals segment
	// bytes shipped to cold storage; replays counts records re-applied
	// during recovery; torn_tails counts segments whose tail was
	// unreadable (partial final record or CRC mismatch) and was discarded
	// at the first damage. server.snapshots counts completed checkpoint
	// passes (snapshot set + manifest landed). Exported on /metrics as
	// crucial_wal_*_total / crucial_server_snapshots_total.
	MetWALAppends      = "wal.appends"
	MetWALFsyncs       = "wal.fsyncs"
	MetWALBytes        = "wal.bytes"
	MetWALReplays      = "wal.replays"
	MetWALTornTails    = "wal.torn_tails"
	MetServerSnapshots = "server.snapshots"
	// Checkpoint component of the storage bill (FaaSKeeper-style cost
	// accounting): snapshot-blob and manifest PUTs plus their bytes,
	// separable from the wal.* counters that price the log component.
	MetSnapshotPuts  = "snapshot.puts"
	MetSnapshotBytes = "snapshot.bytes"

	// Cold object store (s3sim) request counters, the raw material of the
	// storage cost model: every put, get/head, list and delete is a
	// billable S3 request. Exported as crucial_storage_*_total.
	MetStoragePuts     = "storage.puts"
	MetStorageGets     = "storage.gets"
	MetStorageLists    = "storage.lists"
	MetStorageDeletes  = "storage.deletes"
	MetStoragePutBytes = "storage.put_bytes"
	MetStorageGetBytes = "storage.get_bytes"

	// Chaos engine (fault injection). Exported on /metrics as
	// crucial_chaos_*_total.
	MetChaosFramesDropped    = "chaos.frames_dropped"
	MetChaosFramesDelayed    = "chaos.frames_delayed"
	MetChaosFramesDuplicated = "chaos.frames_duplicated"
	MetChaosPartitionDrops   = "chaos.partition_drops"
	MetChaosDialsRefused     = "chaos.dials_refused"
	MetChaosFaaSFaults       = "chaos.faas_faults"
	MetChaosFaaSDelays       = "chaos.faas_delays"
	MetChaosCrashes          = "chaos.crashes"
	MetChaosRestarts         = "chaos.restarts"

	// Stateful functions layer (DESIGN.md §5i). messages counts handler
	// commits that applied (each message counted exactly once across the
	// cluster's engines); sends counts outbox envelopes delivered;
	// replies counts reply futures completed; dups counts envelopes the
	// per-sender dedup window rejected (redeliveries doing their job);
	// mailbox_full counts pushes bounced by backpressure;
	// handler_failures counts handler errors/panics (each implies a
	// redelivery); redeliveries counts handler re-runs whose commit found
	// the message already applied; instances_gc counts idle instances
	// retired from the dispatch directory. Exported on /metrics as
	// crucial_statefun_*_total; statefun.dispatch is the per-message
	// dispatch latency histogram (fetch → commit → outbox drained).
	MetStatefunMessages        = "statefun.messages"
	MetStatefunSends           = "statefun.sends"
	MetStatefunReplies         = "statefun.replies"
	MetStatefunDups            = "statefun.dups"
	MetStatefunMailboxFull     = "statefun.mailbox_full"
	MetStatefunHandlerFailures = "statefun.handler_failures"
	MetStatefunRedeliveries    = "statefun.redeliveries"
	MetStatefunInstancesGC     = "statefun.instances_gc"
	HistStatefunDispatch       = "statefun.dispatch"
)

// Span names and attributes used along the invocation path.
const (
	SpanThread       = "thread"
	SpanFaaSInvoke   = "faas.invoke"
	SpanClientInvoke = "client.invoke"
	SpanServerInvoke = "server.invoke"
	// SpanSMRBatch wraps one ordering round cut from a lane's queue, on
	// the coordinator: the lease fence, the local apply, the ACCEPTs and
	// the members' replies. It is recorded once per cut round (not per
	// write) with AttrBatchSize, and the stages report attributes its self
	// time to the smr_order category. An inline round of one has none.
	SpanSMRBatch = "server.smr_batch"
	// SpanChaosFault is the marker span the chaos engine records per
	// injected fault, so trace dumps show what the workload survived.
	SpanChaosFault = "chaos.fault"
	// SpanCacheRead wraps a read-only invocation answered from the client
	// lease cache (attributes: object_type, method, cache = "hit").
	SpanCacheRead = "cache.read"
	// SpanWALAppend wraps one WAL flush on the durability tier: encoding
	// the pending records and the segment PUT to cold storage. Recorded
	// once per fsync (not per record), so span counts mirror wal.fsyncs.
	SpanWALAppend = "wal.append"
	// SpanRecoveryReplay wraps one node's restart recovery: loading the
	// checkpoint, installing objects, and replaying the surviving WAL.
	SpanRecoveryReplay = "recovery.replay"

	AttrCold       = "cold"
	AttrFunction   = "function"
	AttrThreadID   = "thread_id"
	AttrAttempt    = "attempt"
	AttrObjectType = "object_type"
	AttrObjectKey  = "object_key"
	AttrMethod     = "method"
	AttrPath       = "path" // "round" (a data object) or "sync" (a synchronization object)
	// AttrBatchSize tags a server.smr_batch span with the number of
	// sub-operations its round carried.
	AttrBatchSize = "batch_size"
	AttrError     = "error"
	// AttrChaos tags a span touched by fault injection: "replayed" on a
	// server.invoke answered from the dedup window, the fault kind on
	// chaos.fault markers and faas.invoke spans that hit an injector.
	AttrChaos     = "chaos"
	AttrChaosLink = "chaos_link"
	// AttrCache tags cache.read spans with the lookup outcome ("hit").
	AttrCache       = "cache"
	TimingMonitor   = "monitor_wait"
	TimingAcquire   = "monitor_acquire"
	TimingColdStart = "cold_start"
	TimingQueueWait = "queue_wait"
	TimingSMR       = "smr_order"
)
