package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/totalorder"
)

func validConfig(net rpc.Transport, dir *membership.Directory) Config {
	return Config{
		ID:        "n1",
		Addr:      "n1",
		Transport: net,
		Registry:  objects.BuiltinRegistry(),
		Directory: dir,
		RF:        1,
	}
}

func TestConfigValidation(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	base := validConfig(net, dir)

	mutations := map[string]func(Config) Config{
		"missing id":        func(c Config) Config { c.ID = ""; return c },
		"missing addr":      func(c Config) Config { c.Addr = ""; return c },
		"missing transport": func(c Config) Config { c.Transport = nil; return c },
		"missing registry":  func(c Config) Config { c.Registry = nil; return c },
		"missing directory": func(c Config) Config { c.Directory = nil; return c },
		"rf zero":           func(c Config) Config { c.RF = 0; return c },
	}
	for name, mutate := range mutations {
		if _, err := Start(mutate(base)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Crash() })
	return n
}

func TestIDAndAddr(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	if n.ID() != "n1" || n.Addr() != "n1" {
		t.Fatalf("identity = %s/%s", n.ID(), n.Addr())
	}
}

// dial opens a raw RPC connection to a node.
func dial(t *testing.T, net rpc.Transport, addr string) *rpc.Client {
	t.Helper()
	conn, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestUnknownRPCKind(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), 200, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPing(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	out, err := c.Call(context.Background(), KindPing, nil)
	if err != nil || string(out) != "pong" {
		t.Fatalf("ping = %q, %v", out, err)
	}
}

func TestInvokeGarbagePayload(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindInvoke, []byte("garbage")); err == nil {
		t.Fatal("garbage invocation accepted")
	}
}

func TestTransferGarbagePayload(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindTransfer, []byte{1, 2, 3}); err == nil {
		t.Fatal("garbage transfer accepted")
	}
}

func TestInvokeWrongNodeForeignKey(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr = "n2", "n2"
	startNode(t, cfg2)

	// Find a key owned by n2, send its invocation to n1.
	view := dir.View()
	r := view.Ring()
	var foreign string
	for i := 0; i < 1000; i++ {
		key := core.Ref{Type: objects.TypeAtomicLong, Key: string(rune('a' + i%26))}.String()
		if owner, _ := r.Owner(key); owner == "n2" {
			foreign = string(rune('a' + i%26))
			break
		}
	}
	if foreign == "" {
		t.Skip("no key maps to n2")
	}
	payload, err := core.EncodeInvocation(core.Invocation{
		Ref:    core.Ref{Type: objects.TypeAtomicLong, Key: foreign},
		Method: "Get",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, net, "n1")
	raw, err := c.Call(context.Background(), KindInvoke, payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := core.DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(core.DecodeError(resp.Err), core.ErrWrongNode) {
		t.Fatalf("want ErrWrongNode, got %q", resp.Err)
	}
}

func TestStatsTransfersAndInvocations(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n1 := startNode(t, validConfig(net, dir))

	// Create state, then add a node: transfers must be counted somewhere.
	payload, _ := core.EncodeInvocation(core.Invocation{
		Ref:    core.Ref{Type: objects.TypeAtomicLong, Key: "s"},
		Method: "Set",
		Args:   []any{int64(1)},
	})
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindInvoke, payload); err != nil {
		t.Fatal(err)
	}
	if n1.Stats().Invocations == 0 {
		t.Fatal("invocations not counted")
	}
}

func TestCrashIdempotent(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n, err := Start(validConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := n.Crash(); err != nil {
		t.Fatal("second Crash errored")
	}
	if err := n.Close(); err != nil {
		t.Fatal("Close after Crash errored")
	}
}

func TestClosedNodeRejectsRequests(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n, err := Start(validConfig(net, dir))
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindPing, nil); err != nil {
		t.Fatal(err)
	}
	_ = n.Crash()
	if _, err := c.Call(context.Background(), KindPing, nil); err == nil {
		t.Fatal("crashed node answered")
	}
}

func TestServiceGateLimitsThroughput(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.ServiceTime = 20 * time.Millisecond
	cfg.ServiceConcurrency = 1
	startNode(t, cfg)

	c := dial(t, net, "n1")
	payload, _ := core.EncodeInvocation(core.Invocation{
		Ref:    core.Ref{Type: objects.TypeAtomicLong, Key: "g"},
		Method: "IncrementAndGet",
	})
	start := time.Now()
	const ops = 4
	done := make(chan error, ops)
	for i := 0; i < ops; i++ {
		go func() {
			_, err := c.Call(context.Background(), KindInvoke, payload)
			done <- err
		}()
	}
	for i := 0; i < ops; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < ops*20*time.Millisecond {
		t.Fatalf("4 ops with a 20ms x1 gate finished in %v, want >= 80ms", d)
	}
}

func TestDebugHelpers(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "dbg"}
	if n.DebugHasObject(ref) || n.DebugObjectCount() != 0 {
		t.Fatal("fresh node has objects")
	}
	payload, _ := core.EncodeInvocation(core.Invocation{Ref: ref, Method: "Get"})
	c := dial(t, net, "n1")
	if _, err := c.Call(context.Background(), KindInvoke, payload); err != nil {
		t.Fatal(err)
	}
	if !n.DebugHasObject(ref) || n.DebugObjectCount() != 1 {
		t.Fatal("object not materialized")
	}
}

// Regression: a context cancelled while an invocation is parked in
// Ctl.Wait must unblock promptly. Before the cancellation watcher the
// waiter only re-checked its context after a Broadcast on the same
// object, so an abandoned barrier/future wait slept forever.
func TestWaitUnblocksOnContextCancel(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inv := core.Invocation{
		Ref:    core.Ref{Type: objects.TypeCyclicBarrier, Key: "stuck"},
		Method: "Await",
		Init:   []any{int64(2)}, // two parties, only one ever arrives
	}
	done := make(chan error, 1)
	go func() {
		_, err := n.invokeLocal(ctx, inv)
		done <- err
	}()
	// Let the invocation park inside Wait, then abandon it. No other
	// invocation ever touches the object, so no Broadcast will occur.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not unblock on context cancellation")
	}
}

// Regression: a state transfer carrying a snapshot older than the local
// copy must be refused. Without the version check, a snapshot taken before
// an operation but installed after it rolled the object back, losing an
// acknowledged update (found by the chaos nemesis, seed 505).
func TestStaleTransferRefused(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	ctx := context.Background()

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "xfer"}
	set := func(v int64) {
		t.Helper()
		if _, err := n.invokeLocal(ctx, core.Invocation{Ref: ref, Method: "Set", Args: []any{v}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func() int64 {
		t.Helper()
		res, err := n.invokeLocal(ctx, core.Invocation{Ref: ref, Method: "Get"})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := core.NumberAsInt64(res[0])
		return v
	}

	set(10) // version 1
	e, ok := n.lookupExisting(ref)
	if !ok {
		t.Fatal("object not resident")
	}
	stale, err := n.snapshotEntry(ref, e)
	if err != nil {
		t.Fatal(err)
	}
	set(20) // version 2: the snapshot is now stale

	if err := n.installTransfer(stale); err != nil {
		t.Fatal(err)
	}
	if v := get(); v != 20 {
		t.Fatalf("stale transfer rolled the object back: got %d, want 20", v)
	}

	// A strictly newer snapshot must install.
	newer := stale
	newer.Version = 99
	if err := n.installTransfer(newer); err != nil {
		t.Fatal(err)
	}
	if v := get(); v != 10 {
		t.Fatalf("newer transfer not installed: got %d, want 10", v)
	}
}

// Regression: a committed SMR delivery for an object this replica holds no
// base copy of (the hand-off transfer has not arrived) must be skipped, not
// applied to a freshly created object — that would fork the object's
// lineage. Genesis-flagged ops (first-ever op, coordinator held no copy
// and neither did its peers) still create.
func TestDeliverWithoutBaseCopySkips(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "nobase"}
	invs := []core.Invocation{{Ref: ref, Method: "IncrementAndGet", Persist: true}}

	// Non-genesis round this node coordinates, no local copy: must skip and
	// report a retryable error to the (local) waiter.
	id := totalorder.MsgID{Origin: "n1", Seq: 1}
	rd := &round{n: n, ref: ref, invs: invs, done: make(chan roundOutcome, 1)}
	n.roundMu.Lock()
	n.rounds[id] = rd
	n.roundMu.Unlock()
	if n.deliver(id, roundPayload(t, false, invs...)) {
		t.Fatal("skipped delivery reported as applied")
	}
	select {
	case out := <-rd.done:
		if !errors.Is(out.err, core.ErrRebalancing) {
			t.Fatalf("skipped delivery returned %v, want ErrRebalancing", out.err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never completed")
	}
	if n.DebugHasObject(ref) {
		t.Fatal("non-genesis delivery created a fresh object")
	}
	if !n.isStale(ref) {
		t.Fatal("skipped delivery did not mark the ref stale")
	}

	// The same skip on the member side (a peer's round, decoded off the
	// payload): not applied, nothing created.
	if n.deliver(totalorder.MsgID{Origin: "n9", Seq: 1}, roundPayload(t, false, invs...)) {
		t.Fatal("member-side skipped delivery reported as applied")
	}
	if n.DebugHasObject(ref) {
		t.Fatal("member-side non-genesis delivery created a fresh object")
	}

	// Genesis round: creates and applies.
	if !n.deliver(totalorder.MsgID{Origin: "n9", Seq: 2}, roundPayload(t, true, invs...)) {
		t.Fatal("genesis delivery not applied")
	}
	if !n.DebugHasObject(ref) {
		t.Fatal("genesis delivery did not create the object")
	}
}

// roundPayload is the single round-payload constructor, failing the test
// on an encode error.
func roundPayload(t *testing.T, genesis bool, invs ...core.Invocation) []byte {
	t.Helper()
	payload, err := encodeRoundPayload(genesis, invs)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// Regression: a propose from a coordinator whose membership view differs
// from the receiver's must be fenced. Without the fence, a stale primary
// and the new primary could both commit operations for one object during a
// view transition, forking its lineage (two clients acknowledged the same
// counter value).
func TestProposeFencedOnViewMismatch(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	ctx := context.Background()

	payload := roundPayload(t, true, core.Invocation{
		Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "fenced"},
	})
	mk := func(fence uint64, seq uint64) []byte {
		body, err := core.EncodeValue(proposeMsg{
			ID:      totalorder.MsgID{Origin: "n9", Seq: seq},
			Payload: payload,
			Fence:   fence,
		})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	if _, err := c.Call(ctx, KindPropose, mk(dir.View().Fence()+1, 1)); err == nil {
		t.Fatal("propose with mismatched view fence accepted")
	}
	if _, err := c.Call(ctx, KindPropose, mk(dir.View().Fence(), 2)); err != nil {
		t.Fatalf("propose with matching fence refused: %v", err)
	}
}

// pullObject adopts an existing copy from a group peer instead of treating
// a local miss as object creation.
func TestPullOnMissAdoptsPeerCopy(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n1 := startNode(t, validConfig(net, dir))
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr = "n2", "n2"
	n2 := startNode(t, cfg2)
	ctx := context.Background()

	// Seed a copy on n1 directly (bypassing routing: this is the replica
	// layer, not the client layer).
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "adopt"}
	if _, err := n1.lookupOrCreate(core.Invocation{Ref: ref}); err != nil {
		t.Fatal(err)
	}
	e, _ := n1.lookupExisting(ref)
	e.mu.Lock()
	e.version = 7
	e.persist = true
	e.mu.Unlock()

	if installed, _ := n2.pullObject(ctx, ref, []ring.NodeID{"n1", "n2"}); !installed {
		t.Fatal("pull found no copy")
	}
	got, ok := n2.lookupExisting(ref)
	if !ok {
		t.Fatal("pulled object not resident on n2")
	}
	got.mu.Lock()
	v := got.version
	got.mu.Unlock()
	if v != 7 {
		t.Fatalf("pulled copy version = %d, want 7", v)
	}
}

// The in-flight tracker admits only one coordinator per object at a time:
// during a view transition the old and the new primary must not both have
// undelivered proposals for the same object (each would ack a result the
// other never sees).
func TestInflightSingleCoordinatorPerObject(t *testing.T) {
	tr := newInflightTracker(time.Minute)
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "one"}
	other := core.Ref{Type: objects.TypeAtomicLong, Key: "two"}

	a1 := totalorder.MsgID{Origin: "a", Seq: 1}
	if !tr.admit(a1, ref) {
		t.Fatal("first propose refused")
	}
	if !tr.admit(a1, ref) {
		t.Fatal("duplicate propose (same ID) refused")
	}
	if !tr.admit(totalorder.MsgID{Origin: "a", Seq: 2}, ref) {
		t.Fatal("second propose from the same coordinator refused")
	}
	if tr.admit(totalorder.MsgID{Origin: "b", Seq: 1}, ref) {
		t.Fatal("propose from a second coordinator admitted while the first is in flight")
	}
	if !tr.admit(totalorder.MsgID{Origin: "b", Seq: 2}, other) {
		t.Fatal("unrelated object blocked by another object's in-flight op")
	}
	if !tr.busy(ref) {
		t.Fatal("object with undelivered proposals not busy")
	}

	// Delivery settles both of a's proposals; b may now coordinate.
	tr.settle(a1)
	tr.settle(totalorder.MsgID{Origin: "a", Seq: 2})
	if tr.busy(ref) {
		t.Fatal("object busy after all proposals settled")
	}
	if !tr.admit(totalorder.MsgID{Origin: "b", Seq: 3}, ref) {
		t.Fatal("propose refused after the conflicting ops settled")
	}

	// A view change purges proposals from dead coordinators.
	tr.purge(func(origin string) bool { return origin != "b" })
	if tr.busy(ref) {
		t.Fatal("dead coordinator's proposals survived the purge")
	}
}

// Regression: a mutating op coordinated by another node must revoke the
// leases *this* node granted before its delivery completes — the delivery's
// return is what the coordinator's FINAL reply, and with it the client ack,
// waits on. Around a view change the grantor (primary per the directory's
// latest view) and the coordinator (deposed primary, old view installed,
// write fence unarmed) can be different nodes; without member-side
// revocation the grantor's client caches would serve pre-write state for a
// full TTL after the write was acknowledged.
func TestDeliverRevokesMemberLeases(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.LeaseTTL = time.Second
	n := startNode(t, cfg)

	// A listener standing in for a client cache's invalidation endpoint.
	invalidated := make(chan struct{}, 4)
	l, err := net.Listen("sink")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(func(_ context.Context, kind uint8, _ []byte) ([]byte, error) {
		if kind == KindCacheInvalidate {
			invalidated <- struct{}{}
		}
		return nil, nil
	})
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	// Materialize the object, then hand a lease to the sink — this node is
	// the primary in the directory's latest view, so the grant succeeds.
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "member-lease"}
	if _, err := n.invokeLocal(context.Background(), core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if resp := n.leases.grant(LeaseRequest{Ref: ref, HolderAddr: "sink"}); !resp.Granted {
		t.Fatalf("grant refused: %s", resp.Reason)
	}

	// Deliver a write coordinated elsewhere (origin n9, as a deposed primary
	// still on its old view would): the lease must be dead by the time
	// deliver returns.
	payload := roundPayload(t, false, core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(2)}, Persist: true,
	})
	if !n.deliver(totalorder.MsgID{Origin: "n9", Seq: 1}, payload) {
		t.Fatal("delivery not applied")
	}
	select {
	case <-invalidated:
	default:
		t.Fatal("member-side delivery did not revoke the lease this node granted")
	}
	n.leases.mu.Lock()
	holders := 0
	if rl := n.leases.refs[ref]; rl != nil {
		holders = len(rl.holders)
	}
	n.leases.mu.Unlock()
	if holders != 0 {
		t.Fatalf("%d lease holders survived a foreign-coordinated write", holders)
	}
}

// A fetch for an object with undelivered proposals answers Busy: a snapshot
// taken now would miss those ops, and the puller must neither adopt it nor
// conclude the object does not exist.
func TestFetchBusyWhileOpsInFlight(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n1 := startNode(t, validConfig(net, dir))
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr = "n2", "n2"
	n2 := startNode(t, cfg2)
	ctx := context.Background()

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "busy"}
	if _, err := n1.lookupOrCreate(core.Invocation{Ref: ref}); err != nil {
		t.Fatal(err)
	}
	n1.inflight.admit(totalorder.MsgID{Origin: "n9", Seq: 1}, ref)

	installed, busy := n2.pullObject(ctx, ref, []ring.NodeID{"n1", "n2"})
	if installed {
		t.Fatal("pull adopted a snapshot with ops still in flight")
	}
	if !busy {
		t.Fatal("pull did not report the peer's copy as busy")
	}

	n1.inflight.settle(totalorder.MsgID{Origin: "n9", Seq: 1})
	installed, busy = n2.pullObject(ctx, ref, []ring.NodeID{"n1", "n2"})
	if !installed || busy {
		t.Fatalf("pull after settle: installed=%v busy=%v, want true/false", installed, busy)
	}
}

// An rf=1 invocation whose ownership check predates a placement flip must
// not be acked by the old owner: once the copy is handed off and removed,
// neither a fresh object created in its place nor the dropped entry itself
// may take the write (it would be lost — the new owner never sees it).
func TestInvokeLocalBouncesAcrossHandOff(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	var n1 *Node
	ref := core.Ref{Type: objects.TypeAtomicLong}
	// The constructor runs inside lookupOrCreate, i.e. after invokeLocal's
	// first ownership check: flip the placement right there and return only
	// once n1 has installed the new view.
	flipped := false
	reg := core.NewRegistry()
	reg.MustRegister(core.TypeInfo{Name: objects.TypeAtomicLong, New: func(init []any) (core.Object, error) {
		if !flipped {
			flipped = true
			before, _ := n1.currentView()
			go dir.SetDirective(ref.String(), []ring.NodeID{"n2"})
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
				if v, _ := n1.currentView(); v.ID != before.ID {
					break
				}
			}
		}
		return objects.NewAtomicInt64(init)
	}})
	cfg := validConfig(net, dir)
	cfg.Registry = reg
	n1 = startNode(t, cfg)
	cfg.ID, cfg.Addr, cfg.Registry = "n2", "n2", objects.BuiltinRegistry()
	startNode(t, cfg)
	for i := 0; ; i++ {
		ref.Key = fmt.Sprint("k", i)
		if group, _ := n1.replicaGroup(ref, false); group[0] == n1.cfg.ID {
			break
		}
	}
	ctx := context.Background()
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet"}
	if res, err := n1.invokeLocal(ctx, inc); !errors.Is(err, core.ErrWrongNode) {
		t.Fatalf("old owner answered %v, %v across the flip; want ErrWrongNode", res, err)
	}

	// Same for an invocation that already holds the entry: it must not land
	// behind a migration's final snapshot while the ref is fenced, nor on
	// the entry once the copy was dropped.
	ref.Key += "/held"
	inc.Ref = ref
	dir.SetDirective(ref.String(), []ring.NodeID{"n1"})
	if _, err := n1.invokeLocal(ctx, inc); err != nil {
		t.Fatal(err)
	}
	e, _ := n1.lookupExisting(ref)
	n1.fenceMigration(ref)
	if res, _, err := n1.applyOne(ctx, e, inc); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("fenced copy answered %v, %v; want ErrRebalancing", res, err)
	}
	n1.liftMigrationFence(ref)
	if _, _, err := n1.applyOne(ctx, e, inc); err != nil {
		t.Fatalf("after a failed migration lifts its fence: %v", err)
	}
	dir.SetDirective(ref.String(), []ring.NodeID{"n2"})
	if n1.DebugHasObject(ref) {
		t.Fatal("copy still resident at the old owner after the flip")
	}
	if res, _, err := n1.applyOne(ctx, e, inc); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("dropped entry answered %v, %v; want ErrRebalancing", res, err)
	}
}
