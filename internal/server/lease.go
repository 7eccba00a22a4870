package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"crucial/internal/core"
	"crucial/internal/rpc"
)

// Lease-based read-path coherence (DESIGN.md §5d).
//
// A lease is a time-bounded promise, granted by an object's primary, that
// a client cache's copy of the object stays fresh until the lease expires
// or the primary synchronously revokes it. The grant ships a snapshot and
// the client executes read-only methods against its local copy
// (internal/client/cache.go). The client cache is the only holder: a read
// it does not answer goes to the primary like every other call, which
// serves it from its own copy when it can prove that copy current
// (tryLocalRead) and orders it in a round otherwise.
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
// sequencing (prepareWrite); every *other* group member revokes its
// grants when the round reaches it, before answering the ACCEPT that
// gates the coordinator's ack (memberWriteFence, called from applyOrdered).
// The member side exists because coordinator and grantor can be different
// nodes around a view change: a deposed primary, its fence unarmed, may
// coordinate a write under its old installed view while the new primary —
// validated against the directory's latest view — has already granted
// leases. Those grants live in the new primary's table where the
// coordinator's revocation round never looks; the new primary is in the
// write's replica group (or the view fence would have refused the round),
// so its delivery-time revocation kills them before the write is acked.
//
// View changes where the grantor is *not* in the writing group are fenced
// in time instead: leases granted by a deposed primary live in *its*
// table, invisible to the new one, so for one TTL after any view install
// every write (and nothing else) waits the fence out — by then every
// pre-view lease has expired.

// refLeases is the per-object grant state. Entries exist only while a
// write is in progress or a holder is outstanding (endWrite drops idle
// ones), which is why the epoch lives on the table and not here.
type refLeases struct {
	// writing counts mutating invocations between beginWrite and endWrite;
	// grants are refused while any are in progress, closing the window
	// between revocation and commit.
	writing int
	// holders maps each outstanding grant's holder — the address of its
	// client cache's invalidation listener, where revocation reaches it —
	// to the grant's server-side expiry.
	holders map[string]time.Time
}

// leaseTable is the per-node lease state: grants handed out, the post-view
// write fence, and pooled connections to client invalidation listeners.
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
		conns: make(map[string]*rpc.Client),
	}
}

// LeaseRequest asks an object's primary for a client cache lease
// (KindLease).
type LeaseRequest struct {
	Ref     core.Ref
	Persist bool
	// HolderAddr is the address of the client's invalidation listener,
	// where revocation reaches the holder; it also keys the holder in the
	// primary's table, so renewals update in place.
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
	// Init and Snapshot let the client materialize the object locally.
	Init     []any
	Snapshot []byte
}

// InvalidateMsg revokes a lease: the primary sends it to a client cache's
// invalidation listener as KindCacheInvalidate.
type InvalidateMsg struct {
	Ref   core.Ref
	Epoch uint64
}

// The lease frames are control frames like the ACCEPT one (see core.OpenFrame):
// a tag byte, then the fields, decoded strictly and copied out. The client
// cache reaches them only through LeaseRequest.Encode, DecodeLeaseResponse
// and DecodeInvalidateMsg, so their format lives in this file alone.
const (
	frameLeaseRequest  byte = 'L' // Ref.Type, Ref.Key, Persist byte, HolderAddr
	frameLeaseResponse byte = 'l' // Granted byte, Reason, TTLMillis, Epoch, Init values, Snapshot
	frameInvalidate    byte = 'V' // Ref.Type, Ref.Key, Epoch
)

func appendRef(dst []byte, ref core.Ref) []byte {
	return core.AppendString(core.AppendString(dst, ref.Type), ref.Key)
}

func readRef(r *core.Reader) (ref core.Ref, err error) {
	if ref.Type, err = r.Str(); err == nil {
		ref.Key, err = r.Str()
	}
	return ref, err
}

// Encode returns the KindLease request frame.
func (q LeaseRequest) Encode() []byte {
	b := core.NewFrame(frameLeaseRequest, len(q.Ref.Type)+len(q.Ref.Key)+len(q.HolderAddr)+1, 3)
	return core.AppendString(core.AppendBool(appendRef(b, q.Ref), q.Persist), q.HolderAddr)
}

// decodeLeaseRequest parses exactly one LeaseRequest.Encode frame.
func decodeLeaseRequest(data []byte) (q LeaseRequest, err error) {
	r, err := core.OpenFrame(data, frameLeaseRequest)
	if err == nil {
		q.Ref, err = readRef(&r)
	}
	if err == nil {
		q.Persist, err = r.Bool()
	}
	if err == nil {
		q.HolderAddr, err = r.Str()
	}
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return LeaseRequest{}, fmt.Errorf("server: decode lease request: %w", err)
	}
	return q, nil
}

// encode returns the KindLease response frame. It fails only when an Init
// value has no encoding (see core.AppendValues).
func (p LeaseResponse) encode() ([]byte, error) {
	b := core.NewFrame(frameLeaseResponse, len(p.Reason)+len(p.Snapshot)+1, 5)
	b = core.AppendString(core.AppendBool(b, p.Granted), p.Reason)
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(p.TTLMillis)), p.Epoch)
	b, err := core.AppendValues(b, p.Init)
	if err != nil {
		return nil, fmt.Errorf("server: encode lease response: %w", err)
	}
	return core.AppendBytes(b, p.Snapshot), nil
}

// DecodeLeaseResponse parses exactly one KindLease response frame.
func DecodeLeaseResponse(data []byte) (p LeaseResponse, err error) {
	r, err := core.OpenFrame(data, frameLeaseResponse)
	if err == nil {
		p.Granted, err = r.Bool()
	}
	if err == nil {
		p.Reason, err = r.Str()
	}
	var ttl uint64
	if err == nil {
		ttl, err = r.Uvarint()
	}
	if err == nil {
		p.TTLMillis = int64(ttl)
		p.Epoch, err = r.Uvarint()
	}
	if err == nil {
		p.Init, err = r.Values()
	}
	if err == nil {
		p.Snapshot, err = r.Bytes()
	}
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return LeaseResponse{}, fmt.Errorf("server: decode lease response: %w", err)
	}
	return p, nil
}

// encode returns the KindCacheInvalidate frame.
func (m InvalidateMsg) encode() []byte {
	b := core.NewFrame(frameInvalidate, len(m.Ref.Type)+len(m.Ref.Key), 3)
	return binary.AppendUvarint(appendRef(b, m.Ref), m.Epoch)
}

// DecodeInvalidateMsg parses exactly one KindCacheInvalidate frame.
func DecodeInvalidateMsg(data []byte) (m InvalidateMsg, err error) {
	r, err := core.OpenFrame(data, frameInvalidate)
	if err == nil {
		m.Ref, err = readRef(&r)
	}
	if err == nil {
		m.Epoch, err = r.Uvarint()
	}
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return InvalidateMsg{}, fmt.Errorf("server: decode invalidation: %w", err)
	}
	return m, nil
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
		// An accepted-but-unapplied round is invisible to our copy; a
		// lease granted now could miss an operation another coordinator
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
	e.mu.Unlock()

	if rl == nil {
		rl = &refLeases{holders: make(map[string]time.Time)}
		lt.refs[req.Ref] = rl
	}
	rl.holders[req.HolderAddr] = time.Now().Add(lt.ttl)
	n.cLeaseGrants.Inc()
	if n.log.Enabled(context.Background(), slog.LevelDebug) {
		n.log.Debug("lease granted", "ref", req.Ref.String(),
			"holder", req.HolderAddr, "epoch", resp.Epoch)
	}
	return resp
}

// beginWrite blocks new grants for ref until endWrite and reports whether
// ref has holders, that is whether revokeAll has anything to do. It must
// precede revokeAll on every mutating path, or a grant could slip in
// between the revocation round and the commit.
func (lt *leaseTable) beginWrite(ref core.Ref) (held bool) {
	lt.mu.Lock()
	rl := lt.refs[ref]
	if rl == nil {
		rl = &refLeases{holders: make(map[string]time.Time)}
		lt.refs[ref] = rl
	}
	rl.writing++
	held = len(rl.holders) > 0
	lt.mu.Unlock()
	return held
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
// invalidations still go out but nothing blocks on them. The last holder
// is contacted inline and the others each on a goroutine, so revoking a
// single holder starts none.
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
		rl.holders = make(map[string]time.Time)
	} else {
		delete(lt.refs, ref) // a view-change revocation: no endWrite will follow
	}
	lt.mu.Unlock()

	lt.n.cLeaseRevokes.Add(uint64(len(holders)))
	// Every holder is a client cache and gets the same message: encode it
	// once for the whole round.
	body := InvalidateMsg{Ref: ref, Epoch: epoch}.encode()
	var waitUntil time.Time
	var others chan time.Time
	left := len(holders)
	for addr, expiry := range holders {
		if left--; left == 0 {
			waitUntil = lt.revoke(ctx, addr, body, expiry)
			break
		}
		if others == nil {
			others = make(chan time.Time, len(holders)-1)
		}
		go func() { others <- lt.revoke(ctx, addr, body, expiry) }()
	}
	for range len(holders) - 1 {
		if until := <-others; until.After(waitUntil) {
			waitUntil = until
		}
	}
	if !wait || waitUntil.IsZero() {
		return nil
	}
	d := time.Until(waitUntil)
	if d <= 0 {
		return nil
	}
	lt.n.cLeaseExpiryWaits.Inc()
	if lt.n.log.Enabled(ctx, slog.LevelDebug) {
		lt.n.log.Debug("write waiting out unreachable lease holder",
			"ref", ref.String(), "wait", d.String())
	}
	return pause(ctx, d)
}

// pause waits d, or until ctx ends first and returns its error. Its timer
// is stopped either way.
func pause(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// revoke invalidates one holder's lease and returns the expiry a write
// must wait out when the holder could not be reached, else the zero time.
func (lt *leaseTable) revoke(ctx context.Context, addr string, body []byte, expiry time.Time) time.Time {
	if lt.invalidate(ctx, addr, body) != nil {
		return expiry
	}
	return time.Time{}
}

// invalidate pushes an encoded InvalidateMsg to the client cache listening
// at addr, over a connection that is pooled for the next revocation. The
// attempt is bounded by the TTL: past that the lease is dead anyway and
// revokeAll's expiry wait takes over.
func (lt *leaseTable) invalidate(ctx context.Context, addr string, body []byte) error {
	c, err := lt.clientConn(addr)
	if err != nil {
		return err
	}
	if _, err := c.CallTimeout(ctx, KindCacheInvalidate, body, lt.ttl); err != nil {
		lt.dropClientConn(addr)
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
	return pause(ctx, d)
}

// onViewChange arms the write fence and asynchronously invalidates every
// grant this node handed out (it may no longer own the objects; the fence,
// not the invalidation, carries the safety argument).
func (lt *leaseTable) onViewChange() {
	lt.fence.Store(time.Now().Add(lt.ttl).UnixNano())

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
		return LeaseResponse{Reason: "leases disabled"}.encode()
	}
	req, err := decodeLeaseRequest(payload)
	if err != nil {
		return nil, err
	}
	if req.HolderAddr == "" {
		return LeaseResponse{Reason: "missing holder address"}.encode()
	}
	return n.leases.grant(req).encode()
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
// still writes under its old one), and those must die before the ACCEPT
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
	// The grant block goes up even with no holder to revoke: without it a
	// grant could snapshot the state from before the round.
	if !lt.beginWrite(ref) {
		return func() { lt.endWrite(ref) }, nil
	}
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
// and no round is in flight here. A replica group also needs leases, which
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
