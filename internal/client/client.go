// Package client implements the DSO client: it routes object invocations
// to the owning node using the consistent-hashing ring of the current view,
// injects the simulated client-to-server network latency, and transparently
// retries on topology changes (paper Section 4.3: every access to a shared
// object is mediated by a proxy; this package is what proxies bind to).
package client

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/netsim"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// ViewSource supplies the current membership view. membership.Directory
// implements it directly; a remote deployment can wrap an RPC fetch.
type ViewSource interface {
	View() membership.View
}

// StaticView is a fixed single view (for deployments without a live
// directory, e.g. a static server list).
type StaticView membership.View

// View implements ViewSource.
func (s StaticView) View() membership.View { return membership.View(s) }

var _ ViewSource = StaticView{}

// Config parameterizes a client.
type Config struct {
	// Transport must match the cluster's transport.
	Transport rpc.Transport
	// Views supplies membership.
	Views ViewSource
	// Profile injects the client<->DSO network latency. Nil means no
	// injected latency.
	Profile *netsim.Profile
	// Retry governs re-routing after topology changes: exponential
	// backoff with jitter so a fleet of cloud threads does not retry in
	// lockstep. The zero value means core.DefaultClientRetry.
	Retry core.RetryPolicy
	// AttemptTimeout, when set, bounds each individual attempt. Without
	// it a blackholed response (the request was applied but the reply was
	// lost in the network) parks the call until the connection breaks or
	// the caller's context expires; with it the attempt times out and the
	// client retries the same stamped invocation, which the server's
	// at-most-once window answers by replay instead of re-executing. The
	// caller's context still bounds the call as a whole.
	AttemptTimeout time.Duration
	// Telemetry, when non-nil, records client spans (one per invocation,
	// propagated to the serving node through the wire), RPC round-trip
	// and per-object-type latency histograms, and re-route counters.
	Telemetry *telemetry.Telemetry
	// Cache, when non-nil, enables the lease-based read cache: read-only
	// invocations (per core.RegisterReadOnlyMethods) on leased objects are
	// answered from a local copy without a network round trip, kept
	// coherent by server-pushed invalidations (see cache.go and DESIGN.md
	// §5d). The cluster's nodes must run with leases enabled
	// (server.Config.LeaseTTL > 0) for grants to succeed; against a
	// lease-less cluster every read simply falls back to the remote path.
	Cache *CacheConfig
}

// routes is an immutable routing snapshot: the installed view, its ring,
// and the pooled connections keyed by address. The hot path reads the
// whole bundle with one atomic load; updates (view refresh, dial, drop)
// copy-on-write under the client's update mutex and publish a fresh
// snapshot. A published snapshot — including its conns map — is never
// mutated again.
type routes struct {
	view  membership.View
	ring  *ring.Ring
	conns map[string]*rpc.Client
}

// Client invokes methods on shared objects. Safe for concurrent use by any
// number of goroutines (cloud threads share one client per process): the
// invocation fast path is lock-free (one atomic snapshot load per call),
// so a fleet of cloud threads no longer serializes on a client mutex.
type Client struct {
	cfg     Config
	profile *netsim.Profile
	retry   core.RetryPolicy
	log     *slog.Logger

	// id and seq form the at-most-once stamp: every invocation is sent as
	// (id, seq.Add(1)) and keeps that stamp across all its retries, so
	// servers can recognize a retry of an already-applied call and replay
	// the recorded response (see internal/server/dedup.go).
	id  uint64
	seq atomic.Uint64

	// Telemetry handles; nil (no-op) when no bundle was configured.
	instrumented bool
	tracer       *telemetry.Tracer
	metrics      *telemetry.Registry
	objTrack     *telemetry.ObjectTracker
	cCalls       *telemetry.Counter
	cReroutes    *telemetry.Counter
	cFlushes     *telemetry.Counter
	hRPC         *telemetry.Histogram

	// cache is the lease-based read cache; nil when Config.Cache is unset
	// (reads take the classic remote path at zero cost).
	cache *leaseCache

	// routes is the lock-free routing snapshot; mu serializes writers
	// (refreshView, dial, dropConn, Close) only.
	routes atomic.Pointer[routes]
	mu     sync.Mutex
	closed bool
}

// New builds a client and loads the initial view.
func New(cfg Config) (*Client, error) {
	if cfg.Transport == nil {
		return nil, errors.New("client: config needs a Transport")
	}
	if cfg.Views == nil {
		return nil, errors.New("client: config needs a ViewSource")
	}
	if cfg.Profile == nil {
		cfg.Profile = netsim.Zero()
	}
	if cfg.Retry == (core.RetryPolicy{}) {
		cfg.Retry = core.DefaultClientRetry()
	}
	c := &Client{
		cfg:     cfg,
		profile: cfg.Profile,
		retry:   cfg.Retry,
		log:     telemetry.Logger(telemetry.CompClient),
		id:      newClientID(),
	}
	c.routes.Store(&routes{conns: make(map[string]*rpc.Client)})
	if cfg.Telemetry != nil {
		c.instrumented = true
		c.tracer = cfg.Telemetry.Tracer()
		c.metrics = cfg.Telemetry.Metrics()
		c.objTrack = cfg.Telemetry.Objects()
		c.cCalls = c.metrics.Counter(telemetry.MetClientCalls)
		c.cReroutes = c.metrics.Counter(telemetry.MetClientReroutes)
		c.cFlushes = c.metrics.Counter(telemetry.MetClientWriteFlushes)
		c.hRPC = c.metrics.Histogram(telemetry.HistClientRPC)
	}
	if cfg.Cache != nil {
		lc, err := newLeaseCache(c, *cfg.Cache)
		if err != nil {
			return nil, err
		}
		c.cache = lc
	}
	c.refreshView()
	return c, nil
}

// newClientID draws a random at-most-once identity. Client IDs must be
// unique across *processes*, not just within one: two one-shot CLI
// invocations hitting the same server must never share a stamp, or the
// second would be answered from the first's dedup window instead of
// executing (a process-local counter fails exactly that way — every
// fresh process would start at 1). Zero is the reserved "unstamped"
// value unstamped callers send, so it is never returned.
func newClientID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	// crypto/rand unavailable or drew zero: a time-derived id still
	// distinguishes processes (the |1 keeps it nonzero).
	return uint64(time.Now().UnixNano()) | 1
}

// refreshView reloads membership and publishes a new routing snapshot.
func (c *Client) refreshView() {
	v := c.cfg.Views.View()
	c.mu.Lock()
	cur := c.routes.Load()
	if v.ID >= cur.view.ID {
		// The conns map is shared with the previous snapshot: published
		// maps are immutable, so aliasing is safe.
		c.routes.Store(&routes{view: v, ring: v.Ring(), conns: cur.conns})
	}
	c.mu.Unlock()
}

// target picks the primary node for a reference from a routing snapshot,
// honoring the view's directive table: a key the rebalancer pinned routes
// to its directed primary, everything else to the ring owner. A directive
// flip arrives as a new view, so the ordinary refresh-and-retry loop
// re-routes pinned keys with no extra machinery.
func (rt *routes) target(ref core.Ref) (ring.NodeID, string, error) {
	if rt.ring == nil || rt.ring.Size() == 0 {
		return "", "", errors.New("client: no DSO nodes in view")
	}
	set := rt.view.Directives.Place(rt.ring, ref.String(), 1)
	if len(set) == 0 {
		return "", "", errors.New("client: no owner for " + ref.String())
	}
	owner := set[0]
	addr, ok := rt.view.Addrs[owner]
	if !ok {
		return "", "", fmt.Errorf("client: no address for node %s", owner)
	}
	return owner, addr, nil
}

// route resolves ref to its owner's pooled connection. The common case —
// warm connection, stable view — touches no locks: one atomic snapshot
// load, one ring lookup, one map hit.
func (c *Client) route(ref core.Ref) (string, *rpc.Client, error) {
	rt := c.routes.Load()
	_, addr, err := rt.target(ref)
	if err != nil {
		return "", nil, err
	}
	if rc, ok := rt.conns[addr]; ok {
		return addr, rc, nil
	}
	rc, err := c.dial(addr)
	return addr, rc, err
}

// dial establishes (or returns a concurrently established) connection to
// addr and publishes it in a new snapshot. This is the slow path, taken
// once per address until the connection breaks.
func (c *Client) dial(addr string) (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, rpc.ErrClientClosed
	}
	cur := c.routes.Load()
	if rc, ok := cur.conns[addr]; ok {
		return rc, nil
	}
	netConn, err := c.cfg.Transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	rc := rpc.NewClient(netConn)
	if c.instrumented {
		// The transport layer feeds the round-trip histogram directly, so
		// it also covers server-side blocking time (barrier waits etc.).
		hRPC := c.hRPC
		rc.SetObserver(func(_ uint8, rtt time.Duration, _ int, _ error) {
			hRPC.Observe(rtt)
		})
		cFlushes := c.cFlushes
		rc.SetFlushHook(func() { cFlushes.Inc() })
	}
	conns := make(map[string]*rpc.Client, len(cur.conns)+1)
	for a, cl := range cur.conns {
		conns[a] = cl
	}
	conns[addr] = rc
	c.routes.Store(&routes{view: cur.view, ring: cur.ring, conns: conns})
	return rc, nil
}

// dropConn discards a broken pooled connection.
func (c *Client) dropConn(addr string) {
	c.mu.Lock()
	cur := c.routes.Load()
	if rc, ok := cur.conns[addr]; ok {
		_ = rc.Close()
		conns := make(map[string]*rpc.Client, len(cur.conns))
		for a, cl := range cur.conns {
			if a != addr {
				conns[a] = cl
			}
		}
		c.routes.Store(&routes{view: cur.view, ring: cur.ring, conns: conns})
	}
	c.mu.Unlock()
}

// retryable reports whether an invocation error warrants a re-route.
// Local transport failures are matched structurally with errors.Is; the
// substring checks at the end are a documented last resort for errors
// that crossed the wire as plain text (core.Response.Err) and lost their
// type, plus platform error strings not covered by the sentinels.
func retryable(err error) bool {
	if errors.Is(err, core.ErrWrongNode) || errors.Is(err, core.ErrRebalancing) ||
		errors.Is(err, core.ErrStopped) || errors.Is(err, rpc.ErrClientClosed) {
		return true
	}
	// Structured transport errors: closed sockets and pipes, truncated
	// streams, peer resets. These cover TCP (syscall errnos wrapped in
	// *net.OpError) and the in-memory pipe transport.
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	// Last resort: substring matching on error text, for remote errors
	// stringified by the wire format.
	msg := err.Error()
	return strings.Contains(msg, "connection") || strings.Contains(msg, "closed") ||
		strings.Contains(msg, "EOF") || strings.Contains(msg, "pipe")
}

// InvokeObject sends one method invocation and returns its results,
// implementing core.Invoker. It pays one injected network hop each way and
// retries transparently when the cluster topology shifts underneath it,
// backing off exponentially with jitter so re-routes after a membership
// change spread out instead of stampeding.
func (c *Client) InvokeObject(ctx context.Context, inv core.Invocation) ([]any, error) {
	// Telemetry: one client.invoke span per logical call. Its identity
	// travels inside the Invocation so the serving node can attach its
	// server-side spans to this trace across the RPC boundary.
	var span *telemetry.Span
	if c.instrumented {
		callStart := time.Now()
		var sctx context.Context
		sctx, span = c.tracer.Start(ctx, telemetry.SpanClientInvoke)
		ctx = sctx
		span.SetAttr(telemetry.AttrObjectType, inv.Ref.Type)
		span.SetAttr(telemetry.AttrMethod, inv.Method)
		sc := span.Context()
		inv.Trace = core.TraceContext{TraceID: sc.TraceID, SpanID: sc.SpanID}
		c.cCalls.Inc()
		// Per-object accounting before the cache check, so hot keys show
		// client-side pressure even when every read is a local cache hit.
		c.objTrack.ObserveCall(telemetry.ObjectKey{Type: inv.Ref.Type, Key: inv.Ref.Key})
		typeHist := c.metrics.Histogram(telemetry.MetClientCallPrefix + inv.Ref.Type)
		defer func() {
			typeHist.Observe(time.Since(callStart))
			span.End()
		}()
	}

	// Classify the call against the read-only registry. The flag rides the
	// wire (servers re-validate it against their own registry) and steers
	// both layers of the read path: the lease cache below and the primary's
	// local-read fast path.
	if !inv.ReadOnly {
		inv.ReadOnly = core.IsReadOnlyMethod(inv.Ref.Type, inv.Method)
	}
	// Read path: a read-only call on a leased object is answered locally,
	// no stamp, no encode, no network. ok=false falls through to the
	// remote invoke (and the span above still records the call).
	if c.cache != nil && inv.ReadOnly {
		if results, err, ok := c.cache.read(ctx, inv); ok {
			return results, err
		}
	}

	// Stamp before encoding: the payload below is reused verbatim across
	// retries, so every retry carries the same (clientID, seq) and the
	// server can deduplicate re-executions of an already-applied call.
	if !inv.Stamped() {
		inv.ClientID = c.id
		inv.Seq = c.seq.Add(1)
	}

	// Encode into a pooled buffer: the payload is reused across retry
	// attempts and recycled when the call completes (the RPC layer copies
	// it into the connection's write buffer before Call returns).
	payload, err := core.AppendInvocation(rpc.GetBuffer(0), inv)
	if err != nil {
		return nil, err
	}
	defer rpc.PutBuffer(payload)
	var lastErr error
	for attempt := 0; attempt < c.retry.Attempts(); attempt++ {
		if attempt > 0 {
			c.cReroutes.Inc()
			span.SetAttr(telemetry.AttrAttempt, fmt.Sprint(attempt+1))
			c.log.DebugContext(ctx, "re-routing after retryable error",
				"ref", inv.Ref.String(), "method", inv.Method,
				"attempt", attempt+1, "err", lastErr)
			c.refreshView()
			if err := netsim.Sleep(ctx, c.profile.Scaled(c.retry.Delay(attempt, nil))); err != nil {
				return nil, err
			}
		}
		addr, rc, err := c.route(inv.Ref)
		if err != nil {
			lastErr = err
			continue
		}
		if err := c.profile.Delay(ctx, c.profile.DSONet); err != nil {
			return nil, err
		}
		callCtx := ctx
		var cancel context.CancelFunc
		if c.cfg.AttemptTimeout > 0 {
			callCtx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		}
		raw, err := rc.Call(callCtx, server.KindInvoke, payload)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			// Only the caller's context ends the call; an expired attempt
			// context means this attempt timed out (e.g. the response was
			// lost in the network) and the stamped retry is safe.
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c.dropConn(addr)
			lastErr = err
			continue
		}
		if err := c.profile.Delay(ctx, c.profile.DSONet); err != nil {
			rpc.PutBuffer(raw)
			return nil, err
		}
		resp, err := core.DecodeResponse(raw)
		// The decoder copies everything out of the frame, so the response
		// buffer can rejoin the pool immediately.
		rpc.PutBuffer(raw)
		if err != nil {
			return nil, err
		}
		if remote := core.DecodeError(resp.Err); remote != nil {
			if retryable(remote) {
				lastErr = remote
				continue
			}
			span.SetAttr(telemetry.AttrError, remote.Error())
			return nil, remote
		}
		return resp.Results, nil
	}
	span.SetAttr(telemetry.AttrError, fmt.Sprint(lastErr))
	c.log.WarnContext(ctx, "invocation failed after all attempts",
		"ref", inv.Ref.String(), "method", inv.Method,
		"attempts", c.retry.Attempts(), "err", lastErr)
	return nil, fmt.Errorf("client: %s.%s failed after %d attempts: %w",
		inv.Ref, inv.Method, c.retry.Attempts(), lastErr)
}

var _ core.Invoker = (*Client)(nil)

// Call is a convenience wrapper building the Invocation inline.
func (c *Client) Call(ctx context.Context, ref core.Ref, method string, args ...any) ([]any, error) {
	return c.InvokeObject(ctx, core.Invocation{Ref: ref, Method: method, Args: args})
}

// ID returns the client's dedup identity — the ClientID stamped on every
// invocation. Layers that need a process-unique principal name (e.g. the
// stateful-functions sender identity) derive it from this.
func (c *Client) ID() uint64 { return c.id }

// Close releases all pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.cache != nil {
		c.cache.close()
	}
	cur := c.routes.Load()
	for _, rc := range cur.conns {
		_ = rc.Close()
	}
	c.routes.Store(&routes{view: cur.view, ring: cur.ring, conns: make(map[string]*rpc.Client)})
	return nil
}
