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

// Lease-based read-path coherence (DESIGN.md §5d). A lease is a
// time-bounded promise, granted by an object's primary, that a client
// cache's copy stays fresh until the lease expires or the primary
// synchronously revokes it; the grant ships a snapshot. Writes keep
// linearizability by revoke-before-commit: a mutation blocks new grants
// (beginWrite), invalidates every holder, waits out the server-side expiry
// of any holder whose ack never arrives (it is at or after the holder's
// own), and only then applies. The coordinator revokes its grants before
// sequencing (prepareWrite), every other member before answering the
// ACCEPT (memberWriteFence): around a view change the grantor may be a
// member and not the coordinator. Grants a deposed primary handed out are
// fenced in time instead: for one TTL after a view install every write
// waits (fenceWait).

// leaseTable is the per-node lease state: the revocation epoch, the
// post-view write fence, and pooled connections to client invalidation
// listeners. A ref's grant block and holders live on its record
// (entry.writing, entry.holders).
type leaseTable struct {
	n   *Node
	ttl time.Duration

	// epoch is the node's one revocation counter: every revocation round
	// of any ref increments it and stamps its invalidations with the new
	// value, every grant carries the value current when it was issued.
	// Both happen under the ref's record lock, so for any one ref a grant
	// issued before a revocation carries a smaller epoch than that
	// revocation and one issued after it at least its epoch.
	epoch atomic.Uint64

	// fence is the unix-nano instant until which writes must wait after a
	// view change (see fenceWait).
	fence atomic.Int64

	connMu sync.Mutex
	conns  map[string]*rpc.Client
	closed bool
}

func newLeaseTable(n *Node, ttl time.Duration) *leaseTable {
	return &leaseTable{n: n, ttl: ttl, conns: make(map[string]*rpc.Client)}
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

func readRef(r *core.Reader) (core.Ref, error) { return readRefOn(r, nil) }

// readRefOn is readRef taking the strings of the ref that known, when not
// nil, returns for the type and the key's bytes (Node.knownRef): a ref
// known takes no fresh key string.
func readRefOn(r *core.Reader, known func(typ string, key []byte) core.Ref) (ref core.Ref, err error) {
	var key []byte
	if ref.Type, err = r.Name(); err == nil {
		key, err = r.BytesView()
	}
	if err != nil {
		return core.Ref{}, err
	}
	if known != nil {
		if k := known(ref.Type, key); k != (core.Ref{}) {
			return k, nil
		}
	}
	ref.Key = string(key)
	return ref, nil
}

// Encode returns the KindLease request frame.
func (q LeaseRequest) Encode() []byte {
	b := core.NewFrame(frameLeaseRequest, len(q.Ref.Type)+len(q.Ref.Key)+len(q.HolderAddr)+1, 3)
	return core.AppendString(core.AppendBool(appendRef(b, q.Ref), q.Persist), q.HolderAddr)
}

// decodeLeaseRequest parses exactly one LeaseRequest.Encode frame, its
// ref through known (readRefOn). The holder address, one of the few
// caches a node serves, decodes to a shared copy (core.Reader.Name).
func decodeLeaseRequest(data []byte, known func(string, []byte) core.Ref) (q LeaseRequest, err error) {
	r, err := core.OpenFrame(data, frameLeaseRequest)
	if err == nil {
		q.Ref, err = readRefOn(&r, known)
	}
	if err == nil {
		q.Persist, err = r.Bool()
	}
	if err == nil {
		q.HolderAddr, err = r.Name()
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
	return p.append(make([]byte, 0, p.size()))
}

// size bounds the frame's fixed-size parts; Init values grow it.
func (p LeaseResponse) size() int {
	return 2 + len(p.Reason) + len(p.Snapshot) + 5*binary.MaxVarintLen64
}

// append appends the frame to dst.
func (p LeaseResponse) append(dst []byte) ([]byte, error) {
	b := core.AppendString(core.AppendBool(append(dst, frameLeaseResponse), p.Granted), p.Reason)
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

// grant services one lease request on the primary. The decision — no
// migration fence, a copy opened in the installed epoch (see open), no
// round in flight, no write in flight — the snapshot and the holder's
// registration happen under the ref's record lock, so a write that begins
// after the grant is recorded sees (and revokes) the holder.
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
	group := n.cfg.Directory.Placement().PlaceRef(req.Ref, rf)
	if len(group) == 0 || group[0] != n.cfg.ID {
		return lt.refusal("not primary")
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
	e := n.pin(req.Ref, false)
	if e == nil {
		return lt.refusal("object not resident")
	}
	defer n.release(e)
	e.rmu.Lock()
	defer e.rmu.Unlock()
	switch {
	case e.obj == nil:
		// Grants never materialize objects: a miss here may mean the
		// hand-off has not arrived. The invoke path pulls, then creates.
		return lt.refusal("object not resident")
	case e.fencedLocked():
		// The copy is about to move: a lease could outlive this node's
		// ownership without the new owner knowing.
		return lt.refusal("migrating")
	case e.count > 0:
		// An admitted round is not in the copy yet.
		return lt.refusal("ops in flight")
	case e.opened != n.epoch.Load().id:
		// A copy this node has not opened as primary in the installed
		// view may be behind a member's.
		return lt.refusal("copy not opened")
	case e.writing > 0:
		return lt.refusal("write in flight")
	}
	e.mu.Lock()
	snap, ok := e.obj.(core.Snapshotter)
	var data []byte
	if ok {
		data, err = snap.Snapshot()
	}
	init := e.init
	e.mu.Unlock()
	if !ok || err != nil {
		return lt.refusal("not snapshotable")
	}
	if e.holders == nil {
		e.holders = make(map[string]time.Time)
	}
	e.holders[req.HolderAddr] = time.Now().Add(lt.ttl)
	resp := LeaseResponse{Granted: true, TTLMillis: lt.ttl.Milliseconds(), Epoch: lt.epoch.Load(),
		Init: init, Snapshot: data}
	n.cLeaseGrants.Inc()
	if n.log.Enabled(context.Background(), slog.LevelDebug) {
		n.log.Debug("lease granted", "ref", req.Ref.String(),
			"holder", req.HolderAddr, "epoch", resp.Epoch)
	}
	return resp
}

// beginWrite blocks new grants for e until endWrite and reports whether e
// has holders, that is whether revokeAll has anything to do. It must
// precede revokeAll on every mutating path, or a grant could slip in
// between the revocation round and the commit.
func (e *entry) beginWrite() (held bool) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.writing++
	return len(e.holders) > 0
}

// endWrite re-enables grants for e.
func (e *entry) endWrite() {
	e.rmu.Lock()
	e.writing--
	e.rmu.Unlock()
}

// revokeAll synchronously invalidates every outstanding lease on e. When
// wait is true (the write path), a holder whose invalidation fails is
// fenced by waiting out its server-side expiry — the lease dies of old age
// before the write commits. When wait is false (best-effort cleanup), the
// invalidations still go out but nothing blocks on them. The last holder
// is contacted inline and the others each on a goroutine, so revoking a
// single holder starts none.
func (lt *leaseTable) revokeAll(ctx context.Context, e *entry, wait bool) error {
	e.rmu.Lock()
	holders := e.holders
	if len(holders) == 0 {
		e.rmu.Unlock()
		return nil
	}
	e.holders = nil
	epoch := lt.epoch.Add(1)
	e.rmu.Unlock()
	ref := e.ref

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
	out, err := c.CallTimeout(ctx, KindCacheInvalidate, body, lt.ttl)
	if err != nil {
		lt.dropClientConn(addr)
		return err
	}
	rpc.PutBuffer(out)
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

	for _, e := range lt.n.recordsWhere(func(e *entry) bool { return len(e.holders) > 0 }) {
		go lt.revokeAsync(e)
	}
}

// revokeAsync revokes e's leases best effort, bounded by two TTLs, then
// lets e leave the table if they were all it held.
func (lt *leaseTable) revokeAsync(e *entry) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*lt.ttl)
	defer cancel()
	_ = lt.revokeAll(ctx, e, false)
	lt.n.dropIfIdle(e)
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
	req, err := decodeLeaseRequest(payload, n.knownRef)
	if err != nil {
		return nil, err
	}
	if req.HolderAddr == "" {
		return LeaseResponse{Reason: "missing holder address"}.encode()
	}
	// A grant, the hot reply, goes out in a pooled buffer, which the rpc
	// server recycles.
	resp := n.leases.grant(req)
	return resp.append(rpc.GetBuffer(resp.size()))
}

// prepareWrite is the mutating-path lease hook: wait out the post-view
// fence, block new grants, and synchronously revoke every outstanding
// lease on e. Unless it fails, e.endWrite must run after the write
// finishes to re-enable grants.
func (lt *leaseTable) prepareWrite(ctx context.Context, e *entry) error {
	if err := lt.fenceWait(ctx); err != nil {
		return err
	}
	e.beginWrite()
	if err := lt.revokeAll(ctx, e, true); err != nil {
		e.endWrite()
		return err
	}
	return nil
}

// memberWriteFence is the member-side half of revoke-before-commit, run by
// applyOrdered before a mutating round another node coordinated: around a
// view change this node may hold grants of its own (it is the primary in
// the directory's latest view while a deposed coordinator still writes
// under its old one), and they must die before the ACCEPT reply that lets
// the coordinator ack. The grant block goes up even with no holder, or a
// grant could snapshot the state from before the round. Unless it fails,
// e.endWrite must run once the round has applied; an error means the
// revocation could not complete, and the round must not apply.
func (lt *leaseTable) memberWriteFence(e *entry) error {
	if !e.beginWrite() {
		return nil
	}
	// The bound only guards against pathological scheduling: revokeAll's
	// longest path is one TTL-bounded invalidation attempt plus waiting out
	// a holder's expiry, itself at most one TTL away.
	ctx, cancel := context.WithTimeout(context.Background(), 3*lt.ttl)
	defer cancel()
	if err := lt.revokeAll(ctx, e, true); err != nil {
		e.endWrite()
		return fmt.Errorf("%w: lease revocation for %s outlived its bound: %v",
			core.ErrRebalancing, e.ref, err)
	}
	return nil
}

// tryLocalRead serves a read-only invocation from the primary's own copy
// without a round, for an object whose group has rf members, when this node
// can prove its copy current: the directory's latest view names it primary
// (a deposed one could miss writes the new one acks), the copy is resident,
// opened in the installed epoch (see open) and no round is in flight here.
// A replica group also needs leases, which
// fence-delay a new primary's first write past this check; a group of one
// has no other copy. Otherwise ok = false and the caller runs a round.
func (n *Node) tryLocalRead(ctx context.Context, e *entry, inv core.Invocation, rf int) ([]any, error, bool) {
	if !inv.ReadOnly || (rf > 1 && n.leases == nil) {
		return nil, nil, false
	}
	e.rmu.Lock()
	current := e.obj != nil && e.opened == n.epoch.Load().id && e.count == 0
	e.rmu.Unlock()
	if !current {
		return nil, nil, false
	}
	group := n.cfg.Directory.Placement().PlaceRef(inv.Ref, rf)
	if len(group) == 0 || group[0] != n.cfg.ID {
		return nil, nil, false
	}
	results, err := n.applyOne(ctx, e, inv)
	n.cLocalReads.Inc()
	return results, err, true
}
