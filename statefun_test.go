package crucial

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// counterState is the private state of the test counter function.
type counterState struct {
	Count int64
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStatefunCounterFaaS drives the default execution path: handlers
// run inside FaaS containers via the statefun runner function. Messages
// accumulate in durable per-instance state; a Call reads it back through
// a reply future.
func TestStatefunCounterFaaS(t *testing.T) {
	rt := testRuntime(t, Options{DSONodes: 2, RF: 2})
	fn, err := rt.DeployStatefulFunction("counter", func(c *FnCtx, m FnMsg) error {
		var st counterState
		if _, err := c.State(&st); err != nil {
			return err
		}
		switch m.Name() {
		case "add":
			var n int64
			if err := m.Body(&n); err != nil {
				return err
			}
			st.Count += n
			if err := c.SetState(st); err != nil {
				return err
			}
		case "get":
			return c.Reply(st.Count)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fn.Send(bg(), "c1", "add", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var got int64
	// The mailbox is FIFO, so by the time "get" runs every "add" has
	// been applied.
	if err := fn.Call(bg(), "c1", "get", nil, &got); err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("count = %d, want 55", got)
	}
	var st counterState
	ok, err := fn.State(bg(), "c1", &st)
	if err != nil || !ok || st.Count != 55 {
		t.Fatalf("state read: ok=%v err=%v st=%+v", ok, err, st)
	}
	status, err := fn.Status(bg(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	if status.Processed != 11 || status.Dups != 0 {
		t.Fatalf("status: %+v", status)
	}
}

// TestStatefunSendToSelf runs a countdown chain where each handler run
// re-sends to its own instance; the chain must terminate with every hop
// applied exactly once.
func TestStatefunSendToSelf(t *testing.T) {
	rt := testRuntime(t, Options{Statefun: StatefunOptions{InProcess: true}})
	fn, err := rt.DeployStatefulFunction("countdown", func(c *FnCtx, m FnMsg) error {
		var n int64
		if err := m.Body(&n); err != nil {
			return err
		}
		var st counterState
		if _, err := c.State(&st); err != nil {
			return err
		}
		st.Count++
		if err := c.SetState(st); err != nil {
			return err
		}
		if n > 1 {
			return c.Send(c.Self(), "tick", n-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Send(bg(), "x", "tick", int64(25)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "countdown chain", func() bool {
		var st counterState
		ok, err := fn.State(bg(), "x", &st)
		return err == nil && ok && st.Count == 25
	})
	status, err := fn.Status(bg(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if status.Processed != 25 || status.QueueLen != 0 || status.OutboxLen != 0 {
		t.Fatalf("status after chain: %+v", status)
	}
}

// TestStatefunHandlerPanicRedelivery proves the at-least-once/
// exactly-once-visible contract around a crashing handler: the panicking
// runs stage effects (a state write AND a send) that must never become
// visible, the message is redelivered until a run succeeds, and the
// successful run's effects apply exactly once.
func TestStatefunHandlerPanicRedelivery(t *testing.T) {
	rt := testRuntime(t, Options{Statefun: StatefunOptions{InProcess: true}})
	var attempts atomic.Int64
	var sinkCount atomic.Int64
	sink, err := rt.DeployStatefulFunction("sink", func(c *FnCtx, m FnMsg) error {
		sinkCount.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := rt.DeployStatefulFunction("flaky", func(c *FnCtx, m FnMsg) error {
		n := attempts.Add(1)
		// Effects staged BEFORE the panic must be discarded with the run.
		if err := c.SetState(counterState{Count: 1000 + n}); err != nil {
			return err
		}
		if err := c.Send(FnAddress{FnType: "sink", ID: "s"}, "poke", n); err != nil {
			return err
		}
		if n < 3 {
			panic(fmt.Sprintf("induced failure %d", n))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Send(bg(), "f1", "go", int64(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "message to survive two panics", func() bool {
		st, err := fn.Status(bg(), "f1")
		return err == nil && st.Processed == 1 && st.OutboxLen == 0
	})
	waitFor(t, "the surviving run's send", func() bool { return sinkCount.Load() == 1 })
	if got := attempts.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3", got)
	}
	var st counterState
	if ok, err := fn.State(bg(), "f1", &st); err != nil || !ok {
		t.Fatalf("state: ok=%v err=%v", ok, err)
	}
	// Only the third (successful) run's state may be visible.
	if st.Count != 1003 {
		t.Fatalf("state = %+v, want Count=1003", st)
	}
	// Exactly one send must have reached the sink despite three runs.
	time.Sleep(50 * time.Millisecond)
	if got := sinkCount.Load(); got != 1 {
		t.Fatalf("sink saw %d pokes, want 1", got)
	}
	sinkStatus, err := sink.Status(bg(), "s")
	if err != nil || sinkStatus.Processed != 1 {
		t.Fatalf("sink status: %+v err=%v", sinkStatus, err)
	}
}

// TestStatefunMailboxOverflow fills a tiny mailbox behind a blocked
// handler and checks that sends bounce with ErrMailboxFull, nothing is
// lost or double-applied, and the instance drains once unblocked.
func TestStatefunMailboxOverflow(t *testing.T) {
	rt := testRuntime(t, Options{Statefun: StatefunOptions{InProcess: true, MailboxCap: 4}})
	release := make(chan struct{})
	var processed atomic.Int64
	fn, err := rt.DeployStatefulFunction("slow", func(c *FnCtx, m FnMsg) error {
		select {
		case <-release:
		case <-c.Context().Done():
			return c.Context().Err()
		}
		processed.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first message blocks in the handler but stays queued (it only
	// pops at commit), so capacity 4 admits exactly 4 sends.
	var accepted, bounced int
	for i := 0; i < 8; i++ {
		err := fn.Send(bg(), "s1", "work", int64(i))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrMailboxFull):
			bounced++
		default:
			t.Fatal(err)
		}
	}
	if accepted != 4 || bounced != 4 {
		t.Fatalf("accepted=%d bounced=%d, want 4/4", accepted, bounced)
	}
	close(release)
	waitFor(t, "drain after release", func() bool { return processed.Load() == 4 })
	// Backpressure must be lossless for the caller: bounced messages can
	// be resent and arrive exactly once.
	for i := 0; i < bounced; i++ {
		if err := fn.Send(bg(), "s1", "work", int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "resent messages", func() bool { return processed.Load() == 8 })
	// The handler's own counter leads the commit that bumps Processed by
	// one round: wait for the last commit, not just the last handler run.
	var status FnStatus
	waitFor(t, "last commit", func() bool {
		status, err = fn.Status(bg(), "s1")
		return err != nil || status.Processed >= 8
	})
	if err != nil || status.Processed != 8 || status.Dups != 0 {
		t.Fatalf("status: %+v err=%v", status, err)
	}
	if status.Rejected != 4 {
		t.Fatalf("rejected = %d, want 4", status.Rejected)
	}
}

// TestStatefunIdleGC checks that an instance idle past the TTL is
// retired from the dispatch directory — and that its durable state
// survives retirement and the instance re-activates on the next message.
func TestStatefunIdleGC(t *testing.T) {
	rt := testRuntime(t, Options{Statefun: StatefunOptions{
		InProcess:    true,
		IdleTTL:      80 * time.Millisecond,
		PollInterval: 5 * time.Millisecond,
	}})
	fn, err := rt.DeployStatefulFunction("ephemeral", func(c *FnCtx, m FnMsg) error {
		var st counterState
		if _, err := c.State(&st); err != nil {
			return err
		}
		st.Count++
		return c.SetState(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Send(bg(), "e1", "tick", int64(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first message", func() bool {
		st, err := fn.Status(bg(), "e1")
		return err == nil && st.Processed == 1
	})
	waitFor(t, "idle retirement", func() bool { return rt.statefun().engine.Instances() == 0 })
	// Retirement is directory-only: the mailbox (and its state) is durable.
	var st counterState
	if ok, err := fn.State(bg(), "e1", &st); err != nil || !ok || st.Count != 1 {
		t.Fatalf("state after GC: ok=%v err=%v st=%+v", ok, err, st)
	}
	// The next message re-registers and re-dispatches the instance.
	if err := fn.Send(bg(), "e1", "tick", int64(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-activation", func() bool {
		_, err := fn.State(bg(), "e1", &st)
		return err == nil && st.Count == 2
	})
}

// TestStatefunFanOutAcrossInstances checks per-instance isolation: one
// coordinator fans a batch out to many worker instances, each keeping
// its own state, and collects acks back — the canonical scatter/gather.
func TestStatefunFanOutAcrossInstances(t *testing.T) {
	const workers = 20
	rt := testRuntime(t, Options{DSONodes: 2, Statefun: StatefunOptions{InProcess: true}})
	_, err := rt.DeployStatefulFunction("worker", func(c *FnCtx, m FnMsg) error {
		var n int64
		if err := m.Body(&n); err != nil {
			return err
		}
		if err := c.SetState(counterState{Count: n * n}); err != nil {
			return err
		}
		return c.Send(FnAddress{FnType: "boss", ID: "b"}, "done", n)
	})
	if err != nil {
		t.Fatal(err)
	}
	boss, err := rt.DeployStatefulFunction("boss", func(c *FnCtx, m FnMsg) error {
		var st counterState
		if _, err := c.State(&st); err != nil {
			return err
		}
		switch m.Name() {
		case "start":
			for i := 1; i <= workers; i++ {
				if err := c.Send(FnAddress{FnType: "worker", ID: fmt.Sprint(i)}, "job", int64(i)); err != nil {
					return err
				}
			}
		case "done":
			st.Count++
			if err := c.SetState(st); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := boss.Send(bg(), "b", "start", int64(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all worker acks", func() bool {
		var st counterState
		ok, err := boss.State(bg(), "b", &st)
		return err == nil && ok && st.Count == workers
	})
	ctx := context.Background()
	for i := 1; i <= workers; i++ {
		var st counterState
		ok, err := statefunWorkerState(ctx, rt, fmt.Sprint(i), &st)
		if err != nil || !ok || st.Count != int64(i*i) {
			t.Fatalf("worker %d state: ok=%v err=%v st=%+v", i, ok, err, st)
		}
	}
}

// statefunWorkerState reads a worker instance's state without holding a
// StatefulFunction handle for it.
func statefunWorkerState(ctx context.Context, rt *Runtime, id string, v any) (bool, error) {
	f := &StatefulFunction{rt: rt, fnType: "worker"}
	return f.State(ctx, id, v)
}
