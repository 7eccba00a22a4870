package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// Lease-based client cache (DESIGN.md §5d).
//
// A read-only invocation on a leased object executes against a locally
// materialized copy — no network round trip at all. Coherence is the
// server's job: the object's primary grants a lease (snapshot + TTL) and
// synchronously invalidates or waits out every outstanding lease before a
// mutation commits, so a cached read is always a state some linearization
// could have returned at the moment the lease was checked.
//
// The client's half of the protocol:
//
//   - on a read-only call, execute locally while a valid lease is held;
//   - on a miss (no lease, expired, invalidated), ask the primary for a
//     grant (KindLease) and fall back to a remote invoke if refused;
//   - run a tiny RPC listener (cfg.ListenAddr) where the primary's
//     KindCacheInvalidate lands; dropping the entry and acking is what
//     unblocks the writer;
//   - count the lease's TTL from *before* the request left, so the local
//     expiry always precedes the server-side expiry the writer waits on —
//     wall-clock skew can shorten a lease, never extend it.
//
// Cached entries are immutable after install (renewal installs a fresh
// entry), so concurrent readers share them without locks. That leans on
// the RegisterReadOnlyMethods contract: a method declared read-only must
// not mutate object state.

// CacheConfig enables the lease-based read cache on a client.
type CacheConfig struct {
	// ListenAddr is the transport address the cache's invalidation
	// listener binds to. It must be dialable by every server node and
	// unique per client (e.g. "cache-client-3").
	ListenAddr string
	// Registry materializes leased objects locally; it must register the
	// same types as the cluster (typically objects.BuiltinRegistry() plus
	// application types).
	Registry *core.Registry
	// MaxObjects bounds resident cache entries; 0 means 1024. When full,
	// an arbitrary entry is evicted (leases are cheap to re-acquire).
	MaxObjects int
}

// cacheEntry is one leased local copy. Immutable after install.
type cacheEntry struct {
	obj    core.Object
	epoch  uint64
	expiry time.Time
}

// leaseCache is the client-side lease cache state.
type leaseCache struct {
	c   *Client
	cfg CacheConfig

	rpcServer *rpc.Server

	mu      sync.Mutex
	entries map[core.Ref]*cacheEntry
	// floor fences a grant response that was in flight when an invalidation
	// landed, so it is discarded instead of resurrecting a lease the
	// primary already considers dead.
	floor core.LeaseFloors
	// ttl is the longest lease duration any grant has carried — the
	// deployment's LeaseTTL, which every node shares — and the age past
	// which a floor binds nothing and is swept.
	ttl time.Duration
	// backoff suppresses grant attempts for a ref after a refusal, so a
	// write-hot object does not drown its primary in doomed lease traffic.
	// Lapsed entries are swept as the map grows (core.SweepDoubled).
	backoff      map[core.Ref]time.Time
	backoffSweep int

	cHits          *telemetry.Counter
	cMisses        *telemetry.Counter
	cInvalidations *telemetry.Counter
	cExpiries      *telemetry.Counter
	cStaleGrants   *telemetry.Counter
}

// grantBackoff is how long a refused grant silences further attempts for
// the same ref. Most refusals (write in flight, rebalancing) resolve
// within a few milliseconds, and every backed-off read pays a remote round
// trip, so the window is kept short: long enough that a write-hot object
// does not drown its primary in doomed lease traffic, short enough that a
// read-mostly object re-leases almost immediately after each write.
const grantBackoff = 5 * time.Millisecond

// errCachedBlock marks a read-only method that tried to block during
// cached execution (a classification bug); the caller falls back to a
// remote invoke, where a real monitor exists.
var errCachedBlock = errors.New("client: cached read tried to block")

// newLeaseCache starts the invalidation listener and returns the cache.
func newLeaseCache(c *Client, cfg CacheConfig) (*leaseCache, error) {
	if cfg.ListenAddr == "" {
		return nil, errors.New("client: cache needs a ListenAddr")
	}
	if cfg.Registry == nil {
		return nil, errors.New("client: cache needs a Registry")
	}
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = 1024
	}
	reg := c.metrics
	if reg == nil {
		// Count even when uninstrumented so DebugCacheStats always works.
		reg = telemetry.NewRegistry()
	}
	lc := &leaseCache{
		c:              c,
		cfg:            cfg,
		entries:        make(map[core.Ref]*cacheEntry),
		backoff:        make(map[core.Ref]time.Time),
		cHits:          reg.Counter(telemetry.MetCacheHits),
		cMisses:        reg.Counter(telemetry.MetCacheMisses),
		cInvalidations: reg.Counter(telemetry.MetCacheInvalidations),
		cExpiries:      reg.Counter(telemetry.MetCacheLeaseExpiries),
		cStaleGrants:   reg.Counter(telemetry.MetCacheStaleGrants),
	}
	l, err := c.cfg.Transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("client: cache listener: %w", err)
	}
	lc.rpcServer = rpc.NewServer(lc.handle)
	go func() { _ = lc.rpcServer.Serve(l) }()
	return lc, nil
}

// handle services the invalidation listener.
func (lc *leaseCache) handle(_ context.Context, kind uint8, payload []byte) ([]byte, error) {
	switch kind {
	case server.KindCacheInvalidate:
		var msg server.InvalidateMsg
		if err := core.DecodeValue(payload, &msg); err != nil {
			return nil, err
		}
		lc.invalidate(msg.Ref, msg.Epoch)
		return nil, nil
	case server.KindPing:
		return []byte("pong"), nil
	default:
		return nil, fmt.Errorf("client: cache listener: unknown rpc kind %d", kind)
	}
}

// invalidate drops the leased copy (a write is about to commit, or the
// view changed) and raises the floor against grants requested before now.
func (lc *leaseCache) invalidate(ref core.Ref, epoch uint64) {
	lc.mu.Lock()
	if e, ok := lc.entries[ref]; ok && epoch >= e.epoch {
		delete(lc.entries, ref)
	}
	lc.floor.Raise(ref, epoch, time.Now(), lc.ttl)
	lc.mu.Unlock()
	lc.cInvalidations.Inc()
}

// refused starts ref's grant backoff.
func (lc *leaseCache) refused(ref core.Ref) {
	now := time.Now()
	lc.mu.Lock()
	lc.backoff[ref] = now.Add(grantBackoff)
	core.SweepDoubled(lc.backoff, &lc.backoffSweep, func(until time.Time) bool { return now.After(until) })
	lc.mu.Unlock()
}

// close stops the invalidation listener.
func (lc *leaseCache) close() {
	if lc.rpcServer != nil {
		_ = lc.rpcServer.Close()
	}
}

// read tries to answer a read-only invocation from the cache, acquiring or
// renewing a lease on a miss. ok=false means the caller must fall back to
// a remote invoke (no lease obtainable, or local execution is impossible).
func (lc *leaseCache) read(ctx context.Context, inv core.Invocation) (results []any, err error, ok bool) {
	now := time.Now()
	lc.mu.Lock()
	e, resident := lc.entries[inv.Ref]
	if resident && now.After(e.expiry) {
		delete(lc.entries, inv.Ref)
		resident = false
		lc.cExpiries.Inc()
	}
	if !resident {
		if now.Before(lc.backoff[inv.Ref]) {
			lc.mu.Unlock()
			lc.cMisses.Inc()
			return nil, nil, false
		}
	}
	lc.mu.Unlock()

	if !resident {
		e = lc.acquire(ctx, inv)
		if e == nil {
			lc.cMisses.Inc()
			return nil, nil, false
		}
	}
	results, err = lc.execLocal(ctx, e, inv, resident)
	if errors.Is(err, errCachedBlock) {
		lc.cMisses.Inc()
		return nil, nil, false
	}
	if resident {
		lc.cHits.Inc()
	} else {
		// A cold fill answers locally but paid a grant round trip; counting
		// it as a hit would overstate the warm-path rate the hits/misses
		// ratio is meant to measure.
		lc.cMisses.Inc()
	}
	return results, err, true
}

// execLocal runs the method against the leased copy, under a cache.read
// span when instrumented. hit distinguishes a warm entry from one acquired
// on this call (span attribute only).
func (lc *leaseCache) execLocal(ctx context.Context, e *cacheEntry, inv core.Invocation, hit bool) ([]any, error) {
	if lc.c.instrumented {
		var span *telemetry.Span
		ctx, span = lc.c.tracer.Start(ctx, telemetry.SpanCacheRead)
		span.SetAttr(telemetry.AttrObjectType, inv.Ref.Type)
		span.SetAttr(telemetry.AttrMethod, inv.Method)
		if hit {
			span.SetAttr(telemetry.AttrCache, "hit")
		} else {
			span.SetAttr(telemetry.AttrCache, "fill")
		}
		defer span.End()
	}
	return e.obj.Call(cacheCtl{ctx: ctx}, inv.Method, inv.Args)
}

// acquire asks the object's primary for a lease and installs the copy.
// Returns nil when no lease could be obtained (refused, unreachable,
// unknown type, ...) — never an error, the remote path is the fallback.
func (lc *leaseCache) acquire(ctx context.Context, inv core.Invocation) *cacheEntry {
	info, err := lc.cfg.Registry.Lookup(inv.Ref.Type)
	if err != nil || info.Synchronization {
		return nil
	}
	_, rc, err := lc.c.route(inv.Ref)
	if err != nil {
		return nil
	}
	body, err := core.EncodeValue(server.LeaseRequest{
		Ref:        inv.Ref,
		Persist:    inv.Persist,
		HolderAddr: lc.cfg.ListenAddr,
	})
	if err != nil {
		return nil
	}
	callCtx := ctx
	var cancel context.CancelFunc
	if t := lc.c.cfg.AttemptTimeout; t > 0 {
		callCtx, cancel = context.WithTimeout(ctx, t)
	}
	// The TTL clock starts before the request leaves: the server starts
	// its own at receipt, which is strictly later, so our lease always
	// expires first and a writer waiting out the server-side expiry can
	// never race a read we still consider leased.
	start := time.Now()
	out, err := rc.Call(callCtx, server.KindLease, body)
	if cancel != nil {
		cancel()
	}
	if err != nil {
		return nil
	}
	var resp server.LeaseResponse
	if err := core.DecodeValue(out, &resp); err != nil {
		return nil
	}
	if !resp.Granted {
		lc.refused(inv.Ref)
		return nil
	}
	obj, err := info.New(resp.Init)
	if err != nil {
		return nil
	}
	snap, okSnap := obj.(core.Snapshotter)
	if !okSnap || snap.Restore(resp.Snapshot) != nil {
		return nil
	}
	ttl := time.Duration(resp.TTLMillis) * time.Millisecond
	return lc.install(inv.Ref, &cacheEntry{obj: obj, epoch: resp.Epoch, expiry: start.Add(ttl)}, start)
}

// install publishes a granted copy that was requested at requested and
// returns the entry to read from: e, a newer one that beat it in, or nil
// when an invalidation that may have been aimed at e got home first.
func (lc *leaseCache) install(ref core.Ref, e *cacheEntry, requested time.Time) *cacheEntry {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.ttl = max(lc.ttl, e.expiry.Sub(requested))
	if lc.floor.Binds(ref, e.epoch, requested) {
		// The primary already revoked this grant (and may have committed
		// the write that did), so installing it would serve pre-write state.
		lc.cStaleGrants.Inc()
		return nil
	}
	delete(lc.backoff, ref)
	if cur, okCur := lc.entries[ref]; okCur && cur.epoch > e.epoch {
		return cur
	}
	if len(lc.entries) >= lc.cfg.MaxObjects {
		for other := range lc.entries {
			if other != ref {
				delete(lc.entries, other)
				break
			}
		}
	}
	lc.entries[ref] = e
	return e
}

// CacheStats is the snapshot reported by DebugCacheStats (tests and
// introspection).
type CacheStats struct {
	Entries       int
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	LeaseExpiries uint64
	// StaleGrants counts grants discarded at install because an
	// invalidation that may have revoked them arrived first.
	StaleGrants uint64
}

// DebugCacheStats snapshots the cache counters; zero when no cache is
// configured.
func (c *Client) DebugCacheStats() CacheStats {
	if c.cache == nil {
		return CacheStats{}
	}
	c.cache.mu.Lock()
	n := len(c.cache.entries)
	c.cache.mu.Unlock()
	return CacheStats{
		Entries:       n,
		Hits:          c.cache.cHits.Value(),
		Misses:        c.cache.cMisses.Value(),
		Invalidations: c.cache.cInvalidations.Value(),
		LeaseExpiries: c.cache.cExpiries.Value(),
		StaleGrants:   c.cache.cStaleGrants.Value(),
	}
}

// cacheCtl is the core.Ctl for cached execution: there is no monitor to
// sleep on, so a Wait whose condition does not already hold fails with
// errCachedBlock and the call falls back to the remote path. Read-only
// methods never legitimately wait; this is a safety net, not a feature.
type cacheCtl struct{ ctx context.Context }

func (c cacheCtl) Wait(cond func() bool) error {
	if cond() {
		return nil
	}
	return errCachedBlock
}

func (c cacheCtl) Broadcast() {}

func (c cacheCtl) Context() context.Context { return c.ctx }

var _ core.Ctl = cacheCtl{}
