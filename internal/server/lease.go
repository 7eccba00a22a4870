package server

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/core"
	"crucial/internal/ring"
	"crucial/internal/rpc"
)

// Lease-based read-path coherence (DESIGN.md §5d).
//
// A lease is a time-bounded promise, granted by an object's primary, that
// the holder's copy of the object stays fresh until the lease expires or
// the primary synchronously revokes it. Two kinds of holder exist:
//
//   - client caches: the grant ships a snapshot; the client executes
//     read-only methods against its local copy (internal/client/cache.go);
//   - follower replicas: the grant ships only a version floor; a follower
//     whose local copy has applied at least that many operations may serve
//     read-only invocations itself (follower reads).
//
// Writes preserve linearizability by revoke-before-commit: a mutating
// invocation first blocks new grants (beginWrite), then synchronously
// invalidates every outstanding holder, waiting out the server-side expiry
// of any holder whose ack never arrives, and only then executes. The
// server-side expiry is always at or after the holder-side expiry (holders
// start their clock before the request leaves, the server starts its at
// receipt), so wall-clock skew cannot resurrect a fenced lease.
//
// Revocation is two-sided. The coordinator revokes its own grants before
// multicasting (prepareWrite); every *other* group member revokes its
// grants when the op is delivered to it, before answering the FINAL that
// gates the coordinator's ack (memberWriteFence, called from applyOrdered).
// The member side exists because coordinator and grantor can be different
// nodes around a view change: a deposed primary, its fence unarmed, may
// coordinate a write under its old installed view while the new primary —
// validated against the directory's latest view — has already granted
// leases. Those grants live in the new primary's table where the
// coordinator's revocation round never looks; the new primary is in the
// write's replica group (or the propose fence would have refused the op),
// so its delivery-time revocation kills them before the write is acked.
//
// View changes where the grantor is *not* in the writing group are fenced
// in time instead: leases granted by a deposed primary live in *its*
// table, invisible to the new one, so for one TTL after any view install
// every write (and nothing else) waits the fence out — by then every
// pre-view lease has expired.

// leaseHolder is one outstanding grant in the primary's table.
type leaseHolder struct {
	// addr is where revocation reaches the holder: a client cache's
	// invalidation listener address, or the node ID of a follower.
	addr    string
	replica bool
	expiry  time.Time
}

// refLeases is the per-object grant state. Entries exist only while a
// write is in progress or a holder is outstanding (endWrite drops idle
// ones), which is why the epoch lives on the table and not here.
type refLeases struct {
	// writing counts mutating invocations between beginWrite and endWrite;
	// grants are refused while any are in progress, closing the window
	// between revocation and commit.
	writing int
	holders map[string]*leaseHolder
}

// replicaLease is a lease this node holds as a follower: permission to
// serve read-only calls from its own copy while the copy has applied at
// least MinVersion operations and the lease has not expired.
type replicaLease struct {
	expiry     time.Time
	minVersion uint64
	epoch      uint64
}

// leaseTable is the per-node lease state: grants handed out (primary
// role), replica leases held (follower role), the post-view write fence,
// and pooled connections to client invalidation listeners.
type leaseTable struct {
	n   *Node
	ttl time.Duration

	mu   sync.Mutex
	refs map[core.Ref]*refLeases
	// epoch is the table's one revocation counter: every revocation round
	// of any ref increments it and stamps its invalidations with the new
	// value, every grant carries the value current when it was issued. For
	// any one ref a grant issued before a revocation therefore carries a
	// smaller epoch than that revocation and one issued after it at least
	// its epoch, however often the ref's entry was dropped in between.
	epoch uint64

	heldMu sync.Mutex
	held   map[core.Ref]replicaLease
	// heldFloor fences a replica-lease grant that was in flight when its
	// revocation landed here: the primary already considers that lease dead
	// and may have committed a write on the strength of the revocation ack.
	heldFloor core.LeaseFloors

	// fence is the unix-nano instant until which writes must wait after a
	// view change (see fenceWait).
	fence atomic.Int64

	connMu sync.Mutex
	conns  map[string]*rpc.Client
	closed bool
}

func newLeaseTable(n *Node, ttl time.Duration) *leaseTable {
	return &leaseTable{
		n:     n,
		ttl:   ttl,
		refs:  make(map[core.Ref]*refLeases),
		held:  make(map[core.Ref]replicaLease),
		conns: make(map[string]*rpc.Client),
	}
}

// LeaseRequest asks an object's primary for a lease (KindLease). Replica
// requests come from group members and carry the node ID in HolderAddr;
// client requests carry the address of the client's invalidation listener.
type LeaseRequest struct {
	Ref     core.Ref
	Persist bool
	Replica bool
	// HolderAddr is where revocation reaches the holder; it also keys the
	// holder in the primary's table, so renewals update in place.
	HolderAddr string
}

// LeaseResponse answers a LeaseRequest. A refused grant carries the reason
// (diagnostics only — clients just fall back to a remote invoke).
type LeaseResponse struct {
	Granted bool
	Reason  string
	// TTLMillis is the lease duration. Holders must count it from before
	// the request was sent, which is provably at or before the server's
	// own start point.
	TTLMillis int64
	Epoch     uint64
	// Version is the copy's apply count at grant time: the snapshot's
	// version for client leases, the floor a follower's copy must have
	// reached for replica leases.
	Version uint64
	// Init and Snapshot let a client lease materialize the object locally.
	// Empty for replica leases (the follower already holds a copy).
	Init     []any
	Snapshot []byte
}

// InvalidateMsg revokes a lease: the primary sends it to a client cache's
// invalidation listener as KindCacheInvalidate and to a follower holding a
// replica lease as KindLeaseRevoke.
type InvalidateMsg struct {
	Ref   core.Ref
	Epoch uint64
}

// refusal builds a refused LeaseResponse and counts it.
func (lt *leaseTable) refusal(reason string) LeaseResponse {
	lt.n.cLeaseRefusals.Inc()
	return LeaseResponse{Reason: reason}
}

// grant services one lease request on the primary. The entire decision —
// primacy, residency, no write in flight — and the holder registration
// happen atomically under lt.mu, so a write that begins after the grant is
// recorded sees (and revokes) the holder.
func (lt *leaseTable) grant(req LeaseRequest) LeaseResponse {
	n := lt.n
	rf := 1
	if req.Persist {
		rf = n.cfg.RF
	}
	// Validate primacy against the directory's *latest* view, not the
	// locally installed one: a deposed primary may not have installed the
	// new view yet, and granting from it would outlive the view fence. The
	// directory publishes a view's placement before it tells any node of
	// the view, so this is never older than a fence armed anywhere.
	group := n.cfg.Directory.Placement().Place(req.Ref.String(), rf)
	if len(group) == 0 || group[0] != n.cfg.ID {
		return lt.refusal("not primary")
	}
	if n.migrationFenced(req.Ref) {
		// The object is mid-migration: its copy is about to move and the
		// directive flip will change the primary. A lease granted now could
		// outlive this node's ownership without the new owner knowing.
		return lt.refusal("migrating")
	}
	if req.Replica && !slices.Contains(group, ring.NodeID(req.HolderAddr)) {
		return lt.refusal("holder not in replica group")
	}
	info, err := n.cfg.Registry.Lookup(req.Ref.Type)
	if err != nil {
		return lt.refusal("unknown type")
	}
	if info.Synchronization {
		// Synchronization objects block and mutate on every call; their
		// state is never cacheable.
		return lt.refusal("synchronization object")
	}
	e, resident := n.lookupExisting(req.Ref)
	if !resident {
		// Grants never materialize objects: a miss here may mean the
		// hand-off transfer has not arrived, and caching a fresh zero
		// object would serve state the cluster never held. The normal
		// invoke path (with its pull-on-miss machinery) creates first.
		return lt.refusal("object not resident")
	}
	if n.inflight.busy(req.Ref) {
		// An accepted-but-undelivered proposal is invisible to our copy;
		// a lease granted now could miss an operation another coordinator
		// already committed.
		return lt.refusal("ops in flight")
	}
	if n.isStale(req.Ref) {
		// Resident but behind the committed history: a delivery was
		// skipped before this copy's base installed (see markStale). A
		// lease granted from it would serve reads that miss acknowledged
		// writes.
		return lt.refusal("copy stale")
	}

	lt.mu.Lock()
	defer lt.mu.Unlock()
	rl := lt.refs[req.Ref]
	if rl != nil && rl.writing > 0 {
		return lt.refusal("write in flight")
	}
	resp := LeaseResponse{
		Granted:   true,
		TTLMillis: lt.ttl.Milliseconds(),
		Epoch:     lt.epoch,
	}
	// Lock order lt.mu → e.mu (matched by every lease-path caller).
	e.mu.Lock()
	if e.transferring {
		e.mu.Unlock()
		return lt.refusal("transferring")
	}
	resp.Version = e.version
	if !req.Replica {
		snap, ok := e.obj.(core.Snapshotter)
		if !ok {
			e.mu.Unlock()
			return lt.refusal("not snapshotable")
		}
		data, err := snap.Snapshot()
		if err != nil {
			e.mu.Unlock()
			return lt.refusal("snapshot failed")
		}
		resp.Snapshot = data
		resp.Init = e.init
	}
	e.mu.Unlock()

	if rl == nil {
		rl = &refLeases{holders: make(map[string]*leaseHolder)}
		lt.refs[req.Ref] = rl
	}
	rl.holders[req.HolderAddr] = &leaseHolder{
		addr:    req.HolderAddr,
		replica: req.Replica,
		expiry:  time.Now().Add(lt.ttl),
	}
	n.cLeaseGrants.Inc()
	if n.log.Enabled(context.Background(), slog.LevelDebug) {
		n.log.Debug("lease granted", "ref", req.Ref.String(),
			"holder", req.HolderAddr, "replica", req.Replica,
			"version", resp.Version, "epoch", resp.Epoch)
	}
	return resp
}

// beginWrite blocks new grants for ref until endWrite. It must precede
// revokeAll on every mutating path, or a grant could slip in between the
// revocation round and the commit.
func (lt *leaseTable) beginWrite(ref core.Ref) {
	lt.mu.Lock()
	rl := lt.refs[ref]
	if rl == nil {
		rl = &refLeases{holders: make(map[string]*leaseHolder)}
		lt.refs[ref] = rl
	}
	rl.writing++
	lt.mu.Unlock()
}

// endWrite re-enables grants for ref.
func (lt *leaseTable) endWrite(ref core.Ref) {
	lt.mu.Lock()
	if rl := lt.refs[ref]; rl != nil {
		rl.writing--
		if rl.writing == 0 && len(rl.holders) == 0 {
			delete(lt.refs, ref)
		}
	}
	lt.mu.Unlock()
}

// revokeAll synchronously invalidates every outstanding lease on ref. When
// wait is true (the write path), a holder whose invalidation fails is
// fenced by waiting out its server-side expiry — the lease dies of old age
// before the write commits. When wait is false (best-effort cleanup), the
// invalidations still go out but nothing blocks on them.
func (lt *leaseTable) revokeAll(ctx context.Context, ref core.Ref, wait bool) error {
	lt.mu.Lock()
	rl := lt.refs[ref]
	if rl == nil || len(rl.holders) == 0 {
		lt.mu.Unlock()
		return nil
	}
	lt.epoch++
	epoch := lt.epoch
	holders := rl.holders
	if rl.writing > 0 {
		rl.holders = make(map[string]*leaseHolder)
	} else {
		delete(lt.refs, ref) // a view-change revocation: no endWrite will follow
	}
	lt.mu.Unlock()

	lt.n.cLeaseRevokes.Add(uint64(len(holders)))
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var waitUntil time.Time
	for _, h := range holders {
		wg.Add(1)
		go func(h *leaseHolder) {
			defer wg.Done()
			// Bound each attempt by the TTL: past that the lease is dead
			// anyway and the expiry wait below takes over.
			rctx, cancel := context.WithTimeout(ctx, lt.ttl)
			defer cancel()
			if err := lt.invalidate(rctx, h, InvalidateMsg{Ref: ref, Epoch: epoch}); err != nil {
				failMu.Lock()
				if h.expiry.After(waitUntil) {
					waitUntil = h.expiry
				}
				failMu.Unlock()
			}
		}(h)
	}
	wg.Wait()
	if !wait || waitUntil.IsZero() {
		return nil
	}
	if d := time.Until(waitUntil); d > 0 {
		lt.n.cLeaseExpiryWaits.Inc()
		if lt.n.log.Enabled(ctx, slog.LevelDebug) {
			lt.n.log.Debug("write waiting out unreachable lease holder",
				"ref", ref.String(), "wait", d.String())
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// invalidate pushes msg to one holder: a follower over the peer mesh, a
// client cache over a connection to its listener that is pooled for the
// next revocation.
func (lt *leaseTable) invalidate(ctx context.Context, h *leaseHolder, msg InvalidateMsg) error {
	body, err := core.EncodeValue(msg)
	if err != nil {
		return err
	}
	if h.replica {
		_, err = lt.n.peerCall(ctx, ring.NodeID(h.addr), KindLeaseRevoke, body)
		return err
	}
	c, err := lt.clientConn(h.addr)
	if err != nil {
		return err
	}
	if _, err := c.Call(ctx, KindCacheInvalidate, body); err != nil {
		lt.dropClientConn(h.addr)
		return err
	}
	return nil
}

func (lt *leaseTable) clientConn(addr string) (*rpc.Client, error) {
	lt.connMu.Lock()
	defer lt.connMu.Unlock()
	if lt.closed {
		return nil, core.ErrStopped
	}
	if c, ok := lt.conns[addr]; ok {
		return c, nil
	}
	conn, err := lt.n.cfg.Transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial lease holder %s: %w", addr, err)
	}
	c := rpc.NewClient(conn)
	lt.conns[addr] = c
	return c, nil
}

func (lt *leaseTable) dropClientConn(addr string) {
	lt.connMu.Lock()
	if c, ok := lt.conns[addr]; ok {
		_ = c.Close()
		delete(lt.conns, addr)
	}
	lt.connMu.Unlock()
}

// fenceWait delays a write until the post-view fence has passed (no-op in
// the steady state). Leases granted before a view change live in the old
// primary's table where the new primary cannot revoke them; waiting one
// TTL from the install lets every such lease expire. Correctness leans on
// grant-side validation using the directory's latest view: no lease is
// granted after the directory published the new view, so install + TTL
// bounds every pre-view lease's expiry.
func (lt *leaseTable) fenceWait(ctx context.Context) error {
	until := time.Unix(0, lt.fence.Load())
	d := time.Until(until)
	if d <= 0 {
		return nil
	}
	lt.n.cLeaseExpiryWaits.Inc()
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// onViewChange arms the write fence, drops every held replica lease, and
// asynchronously invalidates every grant this node handed out (it may no
// longer own the objects; the fence, not the invalidation, carries the
// safety argument). The held-lease floors stay: they bind by request time,
// so a new primary's lower epochs pass them and a grant still in flight
// from the old one does not.
func (lt *leaseTable) onViewChange() {
	lt.fence.Store(time.Now().Add(lt.ttl).UnixNano())
	lt.heldMu.Lock()
	lt.held = make(map[core.Ref]replicaLease)
	lt.heldMu.Unlock()

	lt.mu.Lock()
	refs := make([]core.Ref, 0, len(lt.refs))
	for ref, rl := range lt.refs {
		if len(rl.holders) > 0 {
			refs = append(refs, ref)
		}
	}
	lt.mu.Unlock()
	for _, ref := range refs {
		ref := ref
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*lt.ttl)
			defer cancel()
			_ = lt.revokeAll(ctx, ref, false)
		}()
	}
}

// heldLease returns this node's replica lease for ref, if still valid by
// the local clock.
func (lt *leaseTable) heldLease(ref core.Ref) (replicaLease, bool) {
	lt.heldMu.Lock()
	defer lt.heldMu.Unlock()
	rl, ok := lt.held[ref]
	if !ok || time.Now().After(rl.expiry) {
		return replicaLease{}, false
	}
	return rl, true
}

// storeHeld records a replica lease this node requested at requested,
// keeping the newest epoch if two acquisitions race. A lease the floor
// binds (see heldFloor) is already dead and is discarded: its grant
// response merely lost the race against the invalidation.
func (lt *leaseTable) storeHeld(ref core.Ref, rl replicaLease, requested time.Time) {
	lt.heldMu.Lock()
	defer lt.heldMu.Unlock()
	if lt.heldFloor.Binds(ref, rl.epoch, requested) {
		return
	}
	if cur, ok := lt.held[ref]; !ok || rl.epoch >= cur.epoch {
		lt.held[ref] = rl
	}
}

// dropHeld forgets a replica lease (the primary revoked it) and raises the
// floor so a grant requested before now and older than the revocation
// cannot resurrect it.
func (lt *leaseTable) dropHeld(ref core.Ref, epoch uint64) {
	lt.heldMu.Lock()
	delete(lt.held, ref)
	lt.heldFloor.Raise(ref, epoch, time.Now(), lt.ttl)
	lt.heldMu.Unlock()
}

// close releases the pooled invalidation connections.
func (lt *leaseTable) close() {
	lt.connMu.Lock()
	lt.closed = true
	for _, c := range lt.conns {
		_ = c.Close()
	}
	lt.conns = make(map[string]*rpc.Client)
	lt.connMu.Unlock()
}

// handleLease services a KindLease acquire/renew request.
func (n *Node) handleLease(payload []byte) ([]byte, error) {
	if n.leases == nil {
		return core.EncodeValue(LeaseResponse{Reason: "leases disabled"})
	}
	var req LeaseRequest
	if err := core.DecodeValue(payload, &req); err != nil {
		return nil, err
	}
	if req.HolderAddr == "" {
		return core.EncodeValue(LeaseResponse{Reason: "missing holder address"})
	}
	return core.EncodeValue(n.leases.grant(req))
}

// handleLeaseRevoke services a primary's revocation of our replica lease.
func (n *Node) handleLeaseRevoke(payload []byte) ([]byte, error) {
	var msg InvalidateMsg
	if err := core.DecodeValue(payload, &msg); err != nil {
		return nil, err
	}
	if n.leases != nil {
		n.leases.dropHeld(msg.Ref, msg.Epoch)
	}
	return nil, nil
}

// prepareWrite is the mutating-path lease hook: wait out the post-view
// fence, block new grants, and synchronously revoke every outstanding
// lease on ref. The returned func (never nil) must run after the write
// finishes to re-enable grants. With leases disabled it is all a no-op.
func (n *Node) prepareWrite(ctx context.Context, ref core.Ref) (func(), error) {
	if n.leases == nil {
		return func() {}, nil
	}
	if err := n.leases.fenceWait(ctx); err != nil {
		return func() {}, err
	}
	n.leases.beginWrite(ref)
	if err := n.leases.revokeAll(ctx, ref, true); err != nil {
		n.leases.endWrite(ref)
		return func() {}, err
	}
	return func() { n.leases.endWrite(ref) }, nil
}

// memberWriteFence is the member-side half of revoke-before-commit, run by
// applyOrdered before applying a mutating round that another node
// coordinated. The coordinator's prepareWrite only revokes leases in *its*
// table; around a view change this node may hold grants of its own (it is
// the primary in the directory's latest view while a deposed coordinator
// still writes under its old one), and those must die before the FINAL
// reply that lets the coordinator ack. Returns the func that re-enables
// grants (to call after the round has applied, so no grant can snapshot
// the pre-round state) and an error when the revocation round could not
// complete — the caller must then skip the apply so the round is never
// acked on the strength of a lease that may still be alive. In the steady
// state (no holders, or this node coordinated the round itself) it is two
// map lookups.
func (n *Node) memberWriteFence(origin string, ref core.Ref) (func(), error) {
	if n.leases == nil || origin == string(n.cfg.ID) {
		// The coordinator's own delivery is covered by prepareWrite, whose
		// grant block stays up until the round completes.
		return func() {}, nil
	}
	lt := n.leases
	lt.beginWrite(ref)
	// The bound only guards against pathological scheduling: revokeAll's
	// longest path is one TTL-bounded invalidation attempt plus waiting out
	// a holder's expiry, itself at most one TTL away.
	ctx, cancel := context.WithTimeout(context.Background(), 3*lt.ttl)
	defer cancel()
	if err := lt.revokeAll(ctx, ref, true); err != nil {
		lt.endWrite(ref)
		return func() {}, fmt.Errorf("%w: lease revocation for %s outlived its bound: %v",
			core.ErrRebalancing, ref, err)
	}
	return func() { lt.endWrite(ref) }, nil
}

// tryLocalRead serves a read-only invocation from the primary's own copy
// without a round, for an object whose group has rf members, when this node
// can prove its copy current: the directory's latest view names it primary
// (a deposed one could miss writes the new one acks), the copy is resident
// and no proposal is in flight. A replica group also needs leases, which
// fence-delay a new primary's first write past this check; a group of one
// has no other copy. Otherwise ok = false and the caller runs a round.
func (n *Node) tryLocalRead(ctx context.Context, inv core.Invocation, rf int) ([]any, error, bool) {
	if !inv.ReadOnly || (rf > 1 && n.leases == nil) {
		return nil, nil, false
	}
	e, resident := n.lookupExisting(inv.Ref)
	if !resident || n.isStale(inv.Ref) {
		return nil, nil, false
	}
	if n.inflight.busy(inv.Ref) {
		return nil, nil, false
	}
	group := n.cfg.Directory.Placement().Place(inv.Ref.String(), rf)
	if len(group) == 0 || group[0] != n.cfg.ID {
		return nil, nil, false
	}
	results, err := n.applyOne(ctx, e, inv)
	n.cLocalReads.Inc()
	return results, err, true
}

// followerRead serves a read-only invocation from a follower's copy under
// a primary-granted replica lease. The lease's version floor guarantees
// the copy reflects every acknowledged write: the primary revokes replica
// leases before acking a mutation, and a re-acquired lease carries the
// primary's post-write version, which the follower must reach before it
// may serve again.
func (n *Node) followerRead(ctx context.Context, inv core.Invocation, primary ring.NodeID) ([]any, error) {
	e, ok := n.lookupExisting(inv.Ref)
	if !ok {
		return nil, fmt.Errorf("%w: no follower copy of %s", core.ErrWrongNode, inv.Ref)
	}
	if n.isStale(inv.Ref) {
		// A copy behind the committed history can transiently pass the
		// lease's version floor (version counts diverge after a skipped
		// delivery); bounce to the primary and heal in the background so
		// this follower rejoins the read path.
		go n.selfHeal(inv.Ref)
		return nil, fmt.Errorf("%w: stale follower copy of %s", core.ErrWrongNode, inv.Ref)
	}
	rl, ok := n.leases.heldLease(inv.Ref)
	if !ok {
		var err error
		rl, err = n.acquireReplicaLease(ctx, inv, primary)
		if err != nil {
			// Bounce to the primary rather than surface the grant failure:
			// the client's retry loop re-routes there.
			return nil, fmt.Errorf("%w: no replica lease for %s: %v",
				core.ErrWrongNode, inv.Ref, err)
		}
	}
	e.mu.Lock()
	caughtUp := e.version >= rl.minVersion
	e.mu.Unlock()
	if !caughtUp {
		// Our copy has not applied everything the primary acked; the
		// missing deliveries are in flight. Retryable.
		return nil, fmt.Errorf("%w: follower copy of %s behind lease floor",
			core.ErrRebalancing, inv.Ref)
	}
	results, err := n.applyOne(ctx, e, inv)
	if err == nil {
		n.cFollowerReads.Inc()
	}
	return results, err
}

// acquireReplicaLease asks the primary for (or renews) this node's replica
// lease on ref. The expiry clock starts before the request leaves, so the
// follower's view of the lease always dies no later than the primary's.
func (n *Node) acquireReplicaLease(ctx context.Context, inv core.Invocation, primary ring.NodeID) (replicaLease, error) {
	req := LeaseRequest{
		Ref:        inv.Ref,
		Persist:    inv.Persist,
		Replica:    true,
		HolderAddr: string(n.cfg.ID),
	}
	body, err := core.EncodeValue(req)
	if err != nil {
		return replicaLease{}, err
	}
	start := time.Now()
	out, err := n.peerCall(ctx, primary, KindLease, body)
	if err != nil {
		return replicaLease{}, err
	}
	var resp LeaseResponse
	if err := core.DecodeValue(out, &resp); err != nil {
		return replicaLease{}, err
	}
	if !resp.Granted {
		return replicaLease{}, fmt.Errorf("lease refused: %s", resp.Reason)
	}
	rl := replicaLease{
		expiry:     start.Add(time.Duration(resp.TTLMillis) * time.Millisecond),
		minVersion: resp.Version,
		epoch:      resp.Epoch,
	}
	n.leases.storeHeld(inv.Ref, rl, start)
	return rl, nil
}
