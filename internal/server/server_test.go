package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// A synchronization object that a call leaves Finished is dropped: a
// taken future is freed, and the next call on its key meets a fresh one.
func TestFinishedSyncObjectDropped(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	ref := core.Ref{Type: objects.TypeFuture, Key: "reply"}
	call := func(method string, args ...any) []any {
		t.Helper()
		payload, err := core.EncodeInvocation(core.Invocation{Ref: ref, Method: method, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := c.Call(context.Background(), KindInvoke, payload)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := core.DecodeResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.DecodeError(resp.Err); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return resp.Results
	}
	call("Set", int64(5))
	if got := call("Get"); !n.DebugHasObject(ref) || got[0] != int64(5) {
		t.Fatalf("Get = %v, resident %v; want 5 and the future kept", got, n.DebugHasObject(ref))
	}
	if got := call("Take"); n.DebugHasObject(ref) || got[0] != int64(5) {
		t.Fatalf("Take = %v, resident %v; want 5 and the future dropped", got, n.DebugHasObject(ref))
	}
	if done := call("IsDone"); done[0] != false {
		t.Fatal("the key still names the taken future")
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

// Regression: a state transfer carrying a snapshot at or below the local
// copy's position must be refused. Without the check, a snapshot taken
// before an operation but installed after it rolled the object back,
// losing an acknowledged update (found by the chaos nemesis, seed 505).
func TestStaleTransferRefused(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	ctx := context.Background()

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "xfer"}
	set := func(v int64) {
		t.Helper()
		if _, err := n.invoke(ctx, core.Invocation{Ref: ref, Method: "Set", Args: []any{v}}); err != nil {
			t.Fatal(err)
		}
	}
	get := func() int64 {
		t.Helper()
		res, err := n.invoke(ctx, core.Invocation{Ref: ref, Method: "Get", ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := core.NumberAsInt64(res[0])
		return v
	}

	set(10) // position (v, 1)
	e, ok := n.lookupExisting(ref)
	if !ok {
		t.Fatal("object not resident")
	}
	stale, err := n.snapshotEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	set(20) // (v, 2): the snapshot is now stale
	current, err := n.snapshotEntry(e)
	if err != nil {
		t.Fatal(err)
	}

	for _, msg := range []transferMsg{stale, current} {
		if installed, err := n.installTransfer(msg); err != nil || installed {
			t.Fatalf("transfer at %v over a copy at %v: installed %v, err %v", msg.At, current.At, installed, err)
		}
	}
	if v := get(); v != 20 {
		t.Fatalf("stale transfer rolled the object back: got %d, want 20", v)
	}

	// A strictly higher position must install, whatever its seq: a later
	// epoch's first round follows every round of an earlier one.
	newer := stale
	newer.At = position{Epoch: current.At.Epoch + 1, Seq: 1}
	if installed, err := n.installTransfer(newer); err != nil || !installed {
		t.Fatalf("transfer at %v over a copy at %v: installed %v, err %v", newer.At, current.At, installed, err)
	}
	if v := get(); v != 10 {
		t.Fatalf("newer transfer not installed: got %d, want 10", v)
	}
}

// Regression: a round for an object this replica holds no base copy of
// (the hand-off transfer has not arrived) must be refused, not applied to
// a freshly created object — that would fork the object's lineage.
// Genesis-flagged rounds (first-ever op, the coordinator held no copy and
// neither did its peers) still create. A coordinator whose copy was
// dropped under its round bounces it the same way. A member's round waits
// up to the peer timeout for a copy first (it may have overtaken its
// genesis round), so the test keeps that bound short.
func TestDeliverWithoutBaseCopySkips(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.RF, cfg.PeerCallTimeout = 2, 50*time.Millisecond
	n := startNode(t, cfg)
	// An unreachable second member: the refused round's background pull
	// finds no copy to install.
	dir.Join("n2", "unreachable")
	ctx := context.Background()

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "nobase"}
	inv := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}

	// Non-genesis round this node coordinates, no local copy: a retryable
	// bounce, nothing created.
	m := acceptMsg{ID: totalorder.MsgID{Origin: "n1", Seq: 1}, Ref: ref, Fence: dir.View().Fence(),
		At: position{Epoch: dir.View().ID}}
	if out := n.sequence(ctx, pinned(t, n, ref), &m, false, []core.Invocation{inv}, make([]opResult, 1), nil); !errors.Is(out.err, core.ErrRebalancing) {
		t.Fatalf("round on a dropped copy returned %v, want ErrRebalancing", out.err)
	}
	if n.DebugHasObject(ref) {
		t.Fatal("non-genesis round created a fresh object")
	}

	// The same round from a peer: no copy comes within the bound, so it is
	// refused, nothing created.
	if _, err := n.handleAccept(ctx, acceptBody(t, dir, "n9", 1, false, inv)); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("member-side round without a base copy answered %v, want ErrRebalancing", err)
	}
	if n.DebugHasObject(ref) {
		t.Fatal("member-side non-genesis round created a fresh object")
	}

	// Genesis round: creates and applies.
	if _, err := n.handleAccept(ctx, acceptBody(t, dir, "n9", 1, true, inv)); err != nil {
		t.Fatalf("genesis round refused: %v", err)
	}
	if !n.DebugHasObject(ref) {
		t.Fatal("genesis round did not create the object")
	}
}

// encodeRoundPayload is the payload of a round carrying invs, as a group
// of one's round encodes it for its WAL record: no room ahead of it.
func encodeRoundPayload(genesis bool, invs []core.Invocation) ([]byte, error) {
	return encodeRound(0, genesis, invs)
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

// Regression: an ACCEPT from a coordinator whose membership view differs
// from the receiver's must be fenced. Without the fence, a stale primary
// and the new primary could both commit operations for one object during a
// view transition, forking its lineage (two clients acknowledged the same
// counter value). A round fenced on a view the receiver has left, or on no
// view at all, is refused at once; one fenced on the directory's latest
// view, which the receiver has not installed yet, waits for that install
// and is then accepted.
func TestAcceptFencedOnViewMismatch(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	// Subscribed before the node, this listener holds the node's install
	// of the view that directs "elsewhere" until the gate opens.
	gate := make(chan struct{})
	dir.Subscribe(func(v membership.View) {
		if _, ok := v.Directives.Lookup("elsewhere"); ok {
			<-gate
		}
	})
	startNode(t, validConfig(net, dir))
	c := dial(t, net, "n1")
	ctx := context.Background()

	inv := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "fenced"}}
	payload := roundPayload(t, true, inv)
	mk := func(fence uint64, seq uint64) []byte {
		return acceptMsg{ID: totalorder.MsgID{Origin: "n9", Seq: seq}, Ref: inv.Ref, Fence: fence,
			At: position{Epoch: 1, Seq: 1}, Payload: payload}.encode()
	}
	prev := dir.View().Fence()
	refusedAtOnce := func(fence, seq uint64) {
		t.Helper()
		start := time.Now()
		if _, err := c.Call(ctx, KindAccept, mk(fence, seq)); err == nil || !strings.Contains(err.Error(), "fenced") {
			t.Fatalf("ACCEPT fenced on another view: err = %v, want fenced", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("ACCEPT fenced on another view refused after %v, want at once", d)
		}
	}
	refusedAtOnce(prev+1, 1)

	flipped := make(chan struct{})
	go func() {
		dir.SetDirective("elsewhere", []ring.NodeID{"n1"})
		close(flipped)
	}()
	for dir.View().Fence() == prev {
		time.Sleep(time.Millisecond)
	}
	next := dir.View().Fence()
	early := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, KindAccept, mk(next, 2))
		early <- err
	}()
	time.Sleep(20 * time.Millisecond) // the ACCEPT waits for the node's install
	close(gate)
	<-flipped
	if err := <-early; err != nil {
		t.Fatalf("ACCEPT fenced on the view installed while it waited: %v", err)
	}
	refusedAtOnce(prev, 3)
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
	e := pinned(t, n1, ref)
	if _, err := n1.createCopy(e, core.Invocation{Ref: ref}); err != nil {
		t.Fatal(err)
	}
	e.rmu.Lock()
	e.mu.Lock()
	e.pos = position{Epoch: 3, Seq: 7}
	e.persist = true
	e.mu.Unlock()
	e.rmu.Unlock()

	if installed, found, err := n2.pullObject(ctx, pinned(t, n2, ref), []ring.NodeID{"n1", "n2"}); !installed || !found || err != nil {
		t.Fatalf("pull: installed %v, found %v, err %v", installed, found, err)
	}
	got, ok := n2.lookupExisting(ref)
	if !ok {
		t.Fatal("pulled object not resident on n2")
	}
	got.mu.Lock()
	at := got.pos
	got.mu.Unlock()
	if at != (position{Epoch: 3, Seq: 7}) {
		t.Fatalf("pulled copy at %v, want (3, 7)", at)
	}
}

// A record admits only one coordinator's rounds at a time: during a view
// transition the old and the new primary must not both have unsettled
// rounds for the same object (each would ack a result the other never
// sees). A duplicate of an admitted round counts, and settles, like it.
func TestInflightSingleCoordinatorPerObject(t *testing.T) {
	n := startNode(t, validConfig(rpc.NewMemNetwork(), membership.NewDirectory(time.Hour)))
	e := pinned(t, n, core.Ref{Type: objects.TypeAtomicLong, Key: "one"})
	other := pinned(t, n, core.Ref{Type: objects.TypeAtomicLong, Key: "two"})

	if !e.admit("a") {
		t.Fatal("first round refused")
	}
	if !e.admit("a") {
		t.Fatal("duplicate round refused")
	}
	if !e.admit("a") {
		t.Fatal("second round from the same coordinator refused")
	}
	if e.admit("b") {
		t.Fatal("round from a second coordinator admitted while the first is in flight")
	}
	if !other.admit("b") {
		t.Fatal("unrelated object blocked by another object's in-flight round")
	}
	if !e.busy() {
		t.Fatal("object with unsettled rounds not busy")
	}

	// The round and its duplicate settle; the second round is still in
	// flight, and once it settles b may coordinate.
	e.settle()
	e.settle()
	if !e.busy() {
		t.Fatal("a duplicate's settle released another round")
	}
	e.settle()
	if e.busy() {
		t.Fatal("object busy after all rounds settled")
	}
	if !e.admit("b") {
		t.Fatal("round refused after the conflicting ones settled")
	}
}

// Regression: a mutating op coordinated by another node must revoke the
// leases *this* node granted before its apply completes — the apply is
// what the member's ACCEPT reply, and with it the client ack, waits on. Around a view change the grantor (primary per the directory's
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
	if _, err := n.invoke(context.Background(), core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if resp := n.leases.grant(LeaseRequest{Ref: ref, HolderAddr: "sink"}); !resp.Granted {
		t.Fatalf("grant refused: %s", resp.Reason)
	}

	// A write coordinated elsewhere (origin n9, as a deposed primary still
	// on its old view would): the lease must be dead by the time the
	// member answers.
	// Seq 2: the Set above was round 1 of ref's order under this view.
	if _, err := n.handleAccept(context.Background(), acceptBody(t, dir, "n9", 2, false, core.Invocation{
		Ref: ref, Method: "Set", Args: []any{int64(2)}, Persist: true,
	})); err != nil {
		t.Fatalf("round not applied: %v", err)
	}
	select {
	case <-invalidated:
	default:
		t.Fatal("member-side apply did not revoke the lease this node granted")
	}
	if holders := n.DebugTableSizes().LeaseHolders; holders != 0 {
		t.Fatalf("%d lease holders survived a foreign-coordinated write", holders)
	}
}

// A fetch for an object with unapplied rounds answers Busy: a snapshot
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
	e := pinned(t, n1, ref)
	if _, err := n1.createCopy(e, core.Invocation{Ref: ref}); err != nil {
		t.Fatal(err)
	}
	e.admit("n9")

	installed, _, err := n2.pullObject(ctx, pinned(t, n2, ref), []ring.NodeID{"n1", "n2"})
	if installed {
		t.Fatal("pull adopted a snapshot with ops still in flight")
	}
	if !errors.Is(err, core.ErrRebalancing) || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("pull from a busy peer: err = %v, want it to report the copy busy", err)
	}

	e.settle()
	installed, _, err = n2.pullObject(ctx, pinned(t, n2, ref), []ring.NodeID{"n1", "n2"})
	if !installed || err != nil {
		t.Fatalf("pull after settle: installed=%v err=%v, want true/nil", installed, err)
	}
}

// An rf=1 write in flight while a Join hands its object to the new member
// must not be acked on a copy the new owner never receives: the round of
// one either bounces or reaches the new owner with the hand-off. The view
// flips, and the old owner's rebalance runs, after the round passed its
// fence check and before it applies its first write, which creates the
// object: a copy created only at apply time would miss the rebalance's
// enumeration and stay behind on the old owner. A call
// that already holds the entry (applyOne, which synchronization objects and
// proved-current reads use) must bounce while the ref is fenced for a
// migration, and once the copy was handed off and dropped.
func TestRoundOfOneAcrossHandOff(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	// Two keys n1 owns alone and n2 takes over when it joins.
	var keys []core.Ref
	joined := membership.View{Members: []ring.NodeID{"n1", "n2"}}
	for i := 0; len(keys) < 2; i++ {
		ref := core.Ref{Type: objects.TypeAtomicLong, Key: fmt.Sprint("k", i)}
		if joined.Place(ref.String(), 1)[0] == "n2" {
			keys = append(keys, ref)
		}
	}
	held, moving := keys[0], keys[1]
	n1 := startNode(t, validConfig(net, dir))
	ctx := context.Background()
	inc := func(ref core.Ref) core.Invocation {
		return core.Invocation{Ref: ref, Method: "IncrementAndGet"}
	}

	if _, err := n1.invoke(ctx, inc(held)); err != nil {
		t.Fatal(err)
	}
	e, _ := n1.lookupExisting(held)
	e.setFence(time.Now().Add(migrationFenceTTL))
	if res, err := n1.applyOne(ctx, e, inc(held)); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("fenced copy answered %v, %v; want ErrRebalancing", res, err)
	}
	e.setFence(time.Time{})
	if _, err := n1.applyOne(ctx, e, inc(held)); err != nil {
		t.Fatalf("after a failed migration lifts its fence: %v", err)
	}

	// Once set, the next round of one starts n2 before its delivery and
	// goes on only once n1 has handed held off in the rebalance n2's Join
	// makes.
	var n2 *Node
	n1.beforeApply = func(core.Ref) {
		n1.beforeApply = nil
		cfg := validConfig(net, dir)
		cfg.ID, cfg.Addr = "n2", "n2"
		var err error
		if n2, err = Start(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n2.Crash() })
		for deadline := time.Now().Add(10 * time.Second); n1.DebugHasObject(held); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("n1 never handed its copy off to n2")
			}
		}
	}
	res, err := n1.invoke(ctx, inc(moving))
	get := func(ref core.Ref) int64 {
		t.Helper()
		got, err := n2.invoke(ctx, core.Invocation{Ref: ref, Method: "Get", ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		return got[0].(int64)
	}
	switch {
	case err == nil:
		if got := get(moving); got != res[0].(int64) {
			t.Fatalf("old owner acked %v across the hand-off; the new owner holds %d", res[0], got)
		}
	case !errors.Is(err, core.ErrRebalancing) && !errors.Is(err, core.ErrWrongNode):
		t.Fatalf("write across the hand-off: %v, want an ack or a retryable bounce", err)
	}

	if n1.DebugHasObject(held) {
		t.Fatal("copy still resident at the old owner after the hand-off")
	}
	if res, err := n1.applyOne(ctx, e, inc(held)); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("dropped entry answered %v, %v; want ErrRebalancing", res, err)
	}
	if got := get(held); got != 2 {
		t.Fatalf("new owner holds %d of the two acked increments", got)
	}
}
