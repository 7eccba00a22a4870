package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/server"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing transport accepted")
	}
	if _, err := New(Config{Transport: rpc.NewMemNetwork()}); err == nil {
		t.Fatal("missing view source accepted")
	}
}

func TestStaticView(t *testing.T) {
	v := StaticView{ID: 1, Members: []ring.NodeID{"a"}, Addrs: map[ring.NodeID]string{"a": "x"}}
	got := v.View()
	if got.ID != 1 || len(got.Members) != 1 {
		t.Fatalf("StaticView.View = %+v", got)
	}
}

func TestRetryableClassification(t *testing.T) {
	retry := []error{
		core.ErrWrongNode,
		core.ErrRebalancing,
		core.ErrStopped,
		rpc.ErrClientClosed,
		// Typed transport errors classified via errors.Is, including when
		// buried under fmt.Errorf %w wrapping.
		net.ErrClosed,
		io.EOF,
		io.ErrUnexpectedEOF,
		io.ErrClosedPipe,
		syscall.ECONNRESET,
		syscall.EPIPE,
		syscall.ECONNREFUSED,
		fmt.Errorf("rpc: call failed: %w", net.ErrClosed),
		fmt.Errorf("dial: %w", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}),
		// Remote errors arrive stringified over the wire; these exercise
		// the documented last-resort substring matching.
		errors.New("read: connection reset by peer"),
		errors.New("unexpected EOF"),
		errors.New("io: read/write on closed pipe"),
	}
	for _, err := range retry {
		if !retryable(err) {
			t.Errorf("%v should be retryable", err)
		}
	}
	noRetry := []error{
		core.ErrUnknownType,
		core.ErrUnknownMethod,
		errors.New("objects: index 5 out of range"),
	}
	for _, err := range noRetry {
		if retryable(err) {
			t.Errorf("%v should not be retryable", err)
		}
	}
}

func TestInvokeNoNodes(t *testing.T) {
	dir := membership.NewDirectory(time.Hour)
	c, err := New(Config{
		Transport: rpc.NewMemNetwork(),
		Views:     dir,
		Retry:     core.RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	_, err = c.Call(context.Background(), core.Ref{Type: objects.TypeAtomicLong, Key: "x"}, "Get")
	if err == nil {
		t.Fatal("invoke with no nodes succeeded")
	}
}

// Full round trip with a real node, exercising view refresh when the node
// joins after the client was created.
func TestClientDiscoversLateNode(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	c, err := New(Config{
		Transport: net,
		Views:     dir,
		Retry:     core.RetryPolicy{MaxRetries: 7, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Starts with an empty view; the node joins afterwards.
	node, err := server.Start(server.Config{
		ID:        "n1",
		Addr:      "n1",
		Transport: net,
		Registry:  objects.BuiltinRegistry(),
		Directory: dir,
		RF:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Crash() }()

	res, err := c.Call(context.Background(), core.Ref{Type: objects.TypeAtomicLong, Key: "x"}, "AddAndGet", int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 3 {
		t.Fatalf("result = %v", res[0])
	}
}

func TestClientClosedRejectsCalls(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	node, err := server.Start(server.Config{
		ID: "n1", Addr: "n1", Transport: net,
		Registry: objects.BuiltinRegistry(), Directory: dir, RF: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Crash() }()
	c, err := New(Config{Transport: net, Views: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	if _, err := c.Call(context.Background(), core.Ref{Type: objects.TypeAtomicLong, Key: "x"}, "Get"); err == nil {
		t.Fatal("call after Close succeeded")
	}
}

func TestNonRetryableErrorReturnedImmediately(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	node, err := server.Start(server.Config{
		ID: "n1", Addr: "n1", Transport: net,
		Registry: objects.BuiltinRegistry(), Directory: dir, RF: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Crash() }()
	c, err := New(Config{Transport: net, Views: dir,
		Retry: core.RetryPolicy{MaxRetries: 4, Backoff: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	start := time.Now()
	_, err = c.Call(context.Background(), core.Ref{Type: "NoSuchType", Key: "x"}, "Get")
	if !errors.Is(err, core.ErrUnknownType) {
		t.Fatalf("want ErrUnknownType, got %v", err)
	}
	if time.Since(start) > 40*time.Millisecond {
		t.Fatal("non-retryable error went through the retry loop")
	}
}

func TestContextCancellationDuringInvoke(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	node, err := server.Start(server.Config{
		ID: "n1", Addr: "n1", Transport: net,
		Registry: objects.BuiltinRegistry(), Directory: dir, RF: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Crash() }()
	c, err := New(Config{Transport: net, Views: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// A barrier Await that can never complete; the context must break it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c.InvokeObject(ctx, core.Invocation{
		Ref:    core.Ref{Type: objects.TypeCyclicBarrier, Key: "b"},
		Method: "Await",
		Init:   []any{int64(2)},
	})
	if err == nil {
		t.Fatal("blocked call survived context cancellation")
	}
}

func TestProfileLatencyApplied(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	node, err := server.Start(server.Config{
		ID: "n1", Addr: "n1", Transport: net,
		Registry: objects.BuiltinRegistry(), Directory: dir, RF: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Crash() }()

	profile := netsim.Zero()
	profile.DSONet = netsim.Latency{Base: 10 * time.Millisecond}
	c, err := New(Config{Transport: net, Views: dir, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	start := time.Now()
	if _, err := c.Call(context.Background(), core.Ref{Type: objects.TypeAtomicLong, Key: "x"}, "Get"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("call took %v, want >= 20ms (two injected hops)", d)
	}
}

// TestUninstrumentedRetryNilSpan drives the full retry loop on a client
// built without telemetry, where the per-call *telemetry.Span stays nil.
// Every attempt after the first calls SetAttr on that nil span, and the
// final failure path does too; the test pins the no-op contract of nil
// span receivers so stripping telemetry can never panic the client.
func TestUninstrumentedRetryNilSpan(t *testing.T) {
	dir := membership.NewDirectory(time.Hour)
	// A member is advertised but nothing listens at its address, so every
	// attempt fails at dial time and the client walks all retries.
	dir.Join("ghost", "ghost-addr")
	c, err := New(Config{
		Transport: rpc.NewMemNetwork(),
		Views:     dir,
		Retry:     core.RetryPolicy{MaxRetries: 3, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	_, err = c.Call(context.Background(), core.Ref{Type: objects.TypeAtomicLong, Key: "x"}, "Get")
	if err == nil {
		t.Fatal("call to dead address succeeded")
	}
	if !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("error %q does not report exhausted attempts", err)
	}
}

// TestClientIDsAreRandomAndNonzero pins the cross-process at-most-once
// contract: ids come from a process-independent random source (a
// process-local counter would make every fresh process reuse id 1 and
// collide in the server's dedup window — a one-shot CLI run would then
// be answered with another process's cached response).
func TestClientIDsAreRandomAndNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		id := newClientID()
		if id == 0 {
			t.Fatal("client id 0 is reserved for unstamped frames")
		}
		if seen[id] {
			t.Fatalf("duplicate client id %d after %d draws", id, i)
		}
		seen[id] = true
	}
	// Counter-like ids (1, 2, 3, ...) would all fall below 64 here; 64
	// random draws from a 64-bit space never do.
	for id := range seen {
		if id <= 64 {
			t.Fatalf("client id %d looks counter-allocated, want random", id)
		}
	}
}
