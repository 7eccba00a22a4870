package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRPCEchoAllocBudget pins the transport's hot-path rule: once the
// connection, the handler workers and the buffer pool are warm, a call
// allocates nothing on either side — no goroutine per request, no header
// array per frame, no box per recycled buffer, and with CallTimeout no
// context or timer per attempt. `make alloc-guard` holds it.
func TestRPCEchoAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	c := startPair(t, NewMemNetwork(), func(_ context.Context, _ uint8, p []byte) ([]byte, error) {
		return p, nil
	})
	ctx := context.Background()
	payload := make([]byte, 64)
	call := func() {
		raw, err := c.Call(ctx, 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		PutBuffer(raw)
	}
	for range 100 {
		call()
	}
	if got := testing.AllocsPerRun(1000, call); got != 0 {
		t.Fatalf("a warmed echo call allocates %.0f/op, budget 0", got)
	}
	bounded := func() {
		raw, err := c.CallTimeout(ctx, 1, payload, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		PutBuffer(raw)
	}
	bounded() // the first attempt timer
	if got := testing.AllocsPerRun(1000, bounded); got != 0 {
		t.Fatalf("a warmed CallTimeout echo allocates %.0f/op, budget 0", got)
	}
}

// TestBufferPoolDropsUndersized pools a small buffer, as the server does
// with a handler's exact-size response, and checks that it costs a larger
// request one miss at most: put back at the head of the pool, it would
// make every GetBuffer take it, find it too small and allocate.
func TestBufferPoolDropsUndersized(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	// One P, so every Get below sees the per-P slot the first Put filled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := GetBuffer(64)
	PutBuffer(make([]byte, 0, 8))
	PutBuffer(b)
	if got := testing.AllocsPerRun(100, func() { PutBuffer(GetBuffer(64)) }); got != 0 {
		t.Fatalf("GetBuffer after an undersized PutBuffer allocates %.0f/op, want 0", got)
	}
}

// TestParkedHandlersDoNotDelayOthers parks handlers the way a barrier
// Await or a held ACCEPT does, and checks that every other request on the
// same connection is still served: the server must start a worker when
// none is idle rather than queue behind a parked one.
func TestParkedHandlersDoNotDelayOthers(t *testing.T) {
	release := make(chan struct{})
	c := startPair(t, NewMemNetwork(), func(_ context.Context, kind uint8, p []byte) ([]byte, error) {
		if kind == 1 {
			<-release
		}
		return append([]byte(nil), p...), nil
	})
	ctx := context.Background()
	const parked = 8
	parkedErrs := make(chan error, parked)
	for range parked {
		go func() {
			_, err := c.Call(ctx, 1, []byte("park"))
			parkedErrs <- err
		}()
	}

	done := make(chan error, 1)
	go func() {
		var wg sync.WaitGroup
		errs := make(chan error, 100)
		for g := range 10 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 10 {
					want := []byte(fmt.Sprintf("%d/%d", g, i))
					got, err := c.Call(ctx, 2, want)
					if err == nil && !bytes.Equal(got, want) {
						err = fmt.Errorf("got %q, want %q", got, want)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		done <- <-errs
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("calls behind parked handlers did not complete")
	}
	select {
	case err := <-parkedErrs:
		t.Fatalf("a parked call returned before release: %v", err)
	default:
	}
	close(release)
	for range parked {
		if err := <-parkedErrs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerCloseLeavesNoWorkers runs calls that park and calls that do
// not, then closes both ends: every goroutine the server started for them
// must be gone.
func TestServerCloseLeavesNoWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr := NewMemNetwork()
	l, err := tr.Listen("close")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(func(ctx context.Context, kind uint8, p []byte) ([]byte, error) {
		if kind == 1 {
			<-ctx.Done() // released by the server's Close
			return nil, ctx.Err()
		}
		return p, nil
	})
	served := make(chan struct{})
	go func() { _ = srv.Serve(l); close(served) }()
	conn, err := tr.Dial("close")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range 40 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Call(ctx, uint8(i%2), []byte("x"))
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	_ = c.Close()
	<-served

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCallTimeoutExpires bounds one attempt with CallTimeout: the attempt
// reports context.DeadlineExceeded, the response that arrives afterwards
// is dropped (and its buffer recycled) by the read loop, and the next call
// on the same connection gets its own answer.
func TestCallTimeoutExpires(t *testing.T) {
	release := make(chan struct{})
	c := startPair(t, NewMemNetwork(), func(ctx context.Context, kind uint8, p []byte) ([]byte, error) {
		switch kind {
		case 1:
			<-release
		case 3:
			<-ctx.Done()
		}
		return append([]byte{kind}, p...), nil
	})
	ctx := context.Background()
	start := time.Now()
	if _, err := c.CallTimeout(ctx, 1, []byte("late"), 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el < 20*time.Millisecond || el > 2*time.Second {
		t.Fatalf("attempt bound of 20ms returned after %v", el)
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries after the attempt expired", left)
	}

	close(release)
	deadline := time.Now().Add(3 * time.Second)
	for c.late.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the late response was never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	got, err := c.CallTimeout(ctx, 2, []byte("next"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte("\x02next"); !bytes.Equal(got, want) {
		t.Fatalf("next call got %q, want %q", got, want)
	}
	// A caller's own context still ends the attempt first.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.CallTimeout(cctx, 3, nil, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller: want Canceled, got %v", err)
	}
}
