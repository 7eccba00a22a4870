package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// startPair spins up a server with the given handler on the chosen
// transport and returns a connected client plus cleanup.
func startPair(t *testing.T, tr Transport, h Handler) *Client {
	t.Helper()
	l, err := tr.Listen("node-test")
	if err != nil {
		// TCP transport needs a real address.
		l, err = tr.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(h)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := tr.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func echoHandler(_ context.Context, kind uint8, payload []byte) ([]byte, error) {
	out := append([]byte{kind}, payload...)
	return out, nil
}

func TestCallEchoMem(t *testing.T) {
	c := startPair(t, NewMemNetwork(), echoHandler)
	got, err := c.Call(context.Background(), 7, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte{7}, []byte("hello")...)) {
		t.Fatalf("echo mismatch: %q", got)
	}
}

func TestCallEchoTCP(t *testing.T) {
	c := startPair(t, TCP{}, echoHandler)
	got, err := c.Call(context.Background(), 1, []byte("tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got[1:]) != "tcp" {
		t.Fatalf("echo mismatch: %q", got)
	}
}

func TestCallEmptyPayload(t *testing.T) {
	c := startPair(t, NewMemNetwork(), func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
		if len(p) != 0 {
			return nil, errors.New("expected empty")
		}
		return nil, nil
	})
	got, err := c.Call(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want empty response, got %d bytes", len(got))
	}
}

func TestCallHandlerError(t *testing.T) {
	c := startPair(t, NewMemNetwork(), func(_ context.Context, _ uint8, _ []byte) ([]byte, error) {
		return nil, errors.New("boom from handler")
	})
	_, err := c.Call(context.Background(), 0, []byte("x"))
	var remote RemoteError
	if !errors.As(err, &remote) || err.Error() != "boom from handler" {
		t.Fatalf("want handler error, got %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	var inFlight atomic.Int32
	var peak atomic.Int32
	block := make(chan struct{})
	c := startPair(t, NewMemNetwork(), func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-block
		inFlight.Add(-1)
		return p, nil
	})

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i)}
			got, err := c.Call(context.Background(), 0, payload)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("call %d: %q, %v", i, got, err)
			}
		}(i)
	}
	// Wait until all requests are in flight on one connection, proving the
	// server does not serialize handlers.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests in flight", inFlight.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if peak.Load() != n {
		t.Fatalf("peak concurrency %d, want %d", peak.Load(), n)
	}
}

func TestCallContextCancellation(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	c := startPair(t, NewMemNetwork(), func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
		<-block
		return p, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, 0, []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	// The connection must still be usable for other requests after an
	// abandoned one.
	go func() {
		time.Sleep(10 * time.Millisecond)
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		quick := func(_ context.Context) {}
		_ = quick
		_, _ = c.Call(ctx2, 0, []byte("y")) // will block on handler; just ensure no panic
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("second call wedged the client")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	c := startPair(t, NewMemNetwork(), func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
		<-block
		return p, nil
	})
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 0, []byte("x"))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
	if _, err := c.Call(context.Background(), 0, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after close: %v, want ErrClientClosed", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	tr := NewMemNetwork()
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(func(ctx context.Context, _ uint8, p []byte) ([]byte, error) {
		<-ctx.Done() // blocks until server close cancels the base context
		return nil, ctx.Err()
	})
	go func() { _ = srv.Serve(l) }()

	conn, err := tr.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer func() { _ = c.Close() }()

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 0, nil)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("call succeeded after server close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("client call not unblocked by server close")
	}
}

func TestLargePayload(t *testing.T) {
	c := startPair(t, NewMemNetwork(), echoHandler)
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	got, err := c.Call(context.Background(), 3, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[1:], payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestPayloadTooLarge(t *testing.T) {
	w := &connWriter{}
	err := w.write(frame{payload: make([]byte, MaxPayload+1)})
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id uint64, kind, flags uint8, payload []byte) bool {
		in := frame{id: id, kind: kind, flags: flags, payload: payload}
		out, err := (&frameReader{r: bytes.NewReader(appendFrame(nil, in))}).next()
		if err != nil {
			return false
		}
		return out.id == id && out.kind == kind && out.flags == flags &&
			bytes.Equal(out.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemNetworkAddressReuse(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("duplicate listen accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("address not reusable after close: %v", err)
	}
}

func TestMemNetworkDialUnknown(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Dial("ghost"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestMemNetworkDialAfterClose(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	if _, err := n.Dial("a"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

func TestMemListenerAddr(t *testing.T) {
	n := NewMemNetwork()
	l, err := n.Listen("node-1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if l.Addr().String() != "node-1" || l.Addr().Network() != "mem" {
		t.Fatalf("addr = %v/%v", l.Addr().Network(), l.Addr().String())
	}
}

func TestServerServeAfterClose(t *testing.T) {
	srv := NewServer(echoHandler)
	_ = srv.Close()
	n := NewMemNetwork()
	l, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err == nil {
		t.Fatal("Serve after Close returned nil")
	}
}

// Ensure concurrent clients on separate connections work (the DSO client
// pool uses one connection per node).
func TestManyClientsOneServer(t *testing.T) {
	tr := NewMemNetwork()
	l, err := tr.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(echoHandler)
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := tr.Dial("srv")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c := NewClient(conn)
			defer func() { _ = c.Close() }()
			for j := 0; j < 20; j++ {
				msg := []byte(fmt.Sprintf("c%d-%d", i, j))
				got, err := c.Call(context.Background(), 9, msg)
				if err != nil || !bytes.Equal(got[1:], msg) {
					t.Errorf("client %d call %d: %q, %v", i, j, got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

var _ net.Listener = (*memListener)(nil)

func TestObserverSamplesCalls(t *testing.T) {
	c := startPair(t, NewMemNetwork(), func(_ context.Context, kind uint8, payload []byte) ([]byte, error) {
		if kind == 9 {
			return nil, errors.New("boom")
		}
		return payload, nil
	})
	type sample struct {
		kind uint8
		rtt  time.Duration
		sent int
		err  error
	}
	var mu sync.Mutex
	var samples []sample
	c.SetObserver(func(kind uint8, rtt time.Duration, sent int, err error) {
		mu.Lock()
		samples = append(samples, sample{kind, rtt, sent, err})
		mu.Unlock()
	})
	if _, err := c.Call(context.Background(), 1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), 9, nil); err == nil {
		t.Fatal("handler error not surfaced")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(samples) != 2 {
		t.Fatalf("observer saw %d calls, want 2", len(samples))
	}
	if samples[0].kind != 1 || samples[0].sent != 3 || samples[0].err != nil || samples[0].rtt <= 0 {
		t.Fatalf("first sample = %+v", samples[0])
	}
	if samples[1].kind != 9 || samples[1].err == nil {
		t.Fatalf("second sample = %+v", samples[1])
	}
	// Removing the observer stops sampling.
	c.SetObserver(nil)
	if _, err := c.Call(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("observer fired after removal: %d samples", len(samples))
	}
}

// TestBufferPoolRoundTrip pins the GetBuffer/PutBuffer contract: sizes up
// to the pooled ceiling are served with capacity to spare, oversized
// requests still work, and nil/undersized Puts are ignored.
func TestBufferPoolRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, minBuffer, minBuffer + 1, maxPooledBuffer, maxPooledBuffer + 1} {
		b := GetBuffer(n)
		if len(b) != 0 {
			t.Fatalf("GetBuffer(%d) len = %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetBuffer(%d) cap = %d", n, cap(b))
		}
		PutBuffer(b)
	}
	PutBuffer(nil) // must not panic
}

// TestBufferPoolStress hammers the pool from many goroutines while
// checking that recycled buffers never leak bytes between users (each
// goroutine writes a signature and verifies it before releasing).
func TestBufferPoolStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(sig byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := GetBuffer(128)
				b = b[:128]
				for j := range b {
					b[j] = sig
				}
				for j := range b {
					if b[j] != sig {
						t.Errorf("buffer corrupted: got %d want %d", b[j], sig)
						return
					}
				}
				PutBuffer(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

// TestCoalescedWritesUnderLoad drives many concurrent callers through a
// single connection, so follower writers
// regularly hand their frames to an in-flight flusher. Every response must
// still match its request (no frame tearing or cross-wiring).
func TestCoalescedWritesUnderLoad(t *testing.T) {
	c := startPair(t, NewMemNetwork(), echoHandler)

	const goroutines = 32
	const callsPer = 200
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				payload := []byte(fmt.Sprintf("g%d-call%d", g, i))
				got, err := c.Call(context.Background(), 3, payload)
				if err != nil {
					errCh <- err
					return
				}
				want := append([]byte{3}, payload...)
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("cross-wired response: got %q want %q", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestCoalescedWriterFailurePropagates closes the connection under a
// coalesced writer and checks pending calls fail rather than hang.
func TestCoalescedWriterFailurePropagates(t *testing.T) {
	tr := NewMemNetwork()
	block := make(chan struct{})
	c := startPair(t, tr, func(_ context.Context, kind uint8, payload []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	defer close(block)

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := c.Call(context.Background(), 1, []byte("stuck"))
			done <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)
	_ = c.Close()
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("call succeeded after client close while handler blocked")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pending call hung after client close")
		}
	}
}
