package statefun_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/client"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/ring"
	"crucial/internal/statefun"
)

// countingRunner counts the drain passes the engine starts.
type countingRunner struct {
	statefun.Runner
	passes atomic.Int64
}

func (r *countingRunner) Run(ctx context.Context, addr statefun.Address) (statefun.RunReport, error) {
	r.passes.Add(1)
	return r.Runner.Run(ctx, addr)
}

// counter is the private state of the "count" function.
type counter struct{ N int64 }

// dispatchRig is a three-node rf=2 cluster with one engine draining a
// "count" function whose handler bumps its instance's state.
type dispatchRig struct {
	clu     *cluster.Cluster
	runner  *countingRunner
	handled atomic.Int64
}

func newDispatchRig(t *testing.T) *dispatchRig {
	t.Helper()
	clu, err := cluster.StartLocal(cluster.Options{Nodes: 3, RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = clu.Close() })
	rig := &dispatchRig{clu: clu}
	hs := statefun.NewHandlerSet()
	if err := hs.Register("count", func(c *statefun.Ctx, m statefun.Msg) error {
		var st counter
		if _, err := c.State(&st); err != nil {
			return err
		}
		st.N++
		rig.handled.Add(1)
		return c.SetState(st)
	}); err != nil {
		t.Fatal(err)
	}
	if err := hs.Register("poison", func(*statefun.Ctx, statefun.Msg) error {
		return errors.New("poison message")
	}); err != nil {
		t.Fatal(err)
	}
	conn := rig.client(t)
	rig.runner = &countingRunner{Runner: statefun.NewProc(conn, hs, statefun.ProcOptions{})}
	eng := statefun.NewEngine(statefun.EngineConfig{Invoker: conn, Runner: rig.runner})
	t.Cleanup(eng.Close)
	return rig
}

// client opens a DSO client of its own.
func (rig *dispatchRig) client(t *testing.T) *client.Client {
	t.Helper()
	c, err := rig.clu.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// count reads an instance's durable count.
func (rig *dispatchRig) count(t *testing.T, inv core.Invoker, addr statefun.Address) int64 {
	t.Helper()
	var st counter
	if _, err := statefun.StateOf(context.Background(), inv, addr, 0, &st); err != nil {
		t.Fatal(err)
	}
	return st.N
}

// waitHandled waits up to limit for n handler runs in all.
func (rig *dispatchRig) waitHandled(t *testing.T, n int64, limit time.Duration) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for rig.handled.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d messages handled after %v", rig.handled.Load(), n, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

func countAddr(i int) statefun.Address { return statefun.Address{FnType: "count", ID: fmt.Sprint(i)} }

// Idle instances cost no drain passes between the engine's periodic
// listings (every 5 s; this test's idle second ends long before the
// first), and a push from a client the engine has never heard of is
// handled at once: the engine learns of it from the doorbell, not by
// polling.
func TestDispatchIdleInstancesCostNothing(t *testing.T) {
	const instances = 100
	rig := newDispatchRig(t)
	ctx := context.Background()
	setup := statefun.NewSender(rig.client(t), "setup", 0)
	for i := 0; i < instances; i++ {
		if err := setup.Send(ctx, countAddr(i), "add", nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	rig.waitHandled(t, instances, 10*time.Second)

	time.Sleep(100 * time.Millisecond) // the last passes settle
	before := rig.runner.passes.Load()
	time.Sleep(time.Second)
	if n := rig.runner.passes.Load() - before; n != 0 {
		t.Fatalf("%d drain passes over %d idle instances in an idle second, want 0", n, instances)
	}

	late := statefun.NewSender(rig.client(t), "late", 0)
	begin := time.Now()
	if err := late.Send(ctx, countAddr(42), "add", nil, ""); err != nil {
		t.Fatal(err)
	}
	rig.waitHandled(t, instances+1, 10*time.Second)
	if d := time.Since(begin); d > 100*time.Millisecond {
		t.Fatalf("a push to an idle instance was handled %v after it was sent, want within 100ms", d)
	}
}

// A push whose doorbell offer never happened is found when the doorbell's
// owner crashes and restarts: the engine sees a nonce it has not seen,
// re-lists the directory and applies the message exactly once.
func TestDispatchDoorbellOwnerCrashRelists(t *testing.T) {
	rig := newDispatchRig(t)
	ctx := context.Background()
	conn := rig.client(t)
	x := countAddr(1)
	if err := statefun.NewSender(conn, "first", 0).Send(ctx, x, "add", nil, ""); err != nil {
		t.Fatal(err)
	}
	rig.waitHandled(t, 1, 10*time.Second)

	// The push and its directory entry land; the ring is lost. It goes to
	// another instance: x's own activation may reach the engine twice, by
	// its offer and by the engine's first listing, and the later of the
	// two could start a pass on x after this push.
	y := countAddr(2)
	env := statefun.Envelope{To: y, From: "lost", Seq: 1, Name: "add"}
	if res, err := statefun.PushEnvelope(ctx, conn, env, 0); err != nil || res.QueueLen != 1 {
		t.Fatalf("push: %+v %v", res, err)
	}
	if err := statefun.RegisterInstance(ctx, conn, y); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if n := rig.handled.Load(); n != 1 {
		t.Fatalf("%d messages handled before anything rang, want 1", n)
	}

	ref := core.Ref{Type: statefun.TypeDoorbell, Key: statefun.DoorbellKey}
	var owner ring.NodeID
	for _, id := range rig.clu.NodeIDs() {
		if n, ok := rig.clu.Node(id); ok && n.DebugHasObject(ref) {
			owner = id
		}
	}
	if owner == "" {
		t.Fatal("no node holds the doorbell")
	}
	if err := rig.clu.CrashNode(owner); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.clu.RestartNode(owner); err != nil {
		t.Fatal(err)
	}
	rig.waitHandled(t, 2, 10*time.Second)
	time.Sleep(200 * time.Millisecond) // a second application would land here
	st, err := statefun.StatusOf(ctx, conn, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.count(t, conn, y); got != 1 || st.Processed != 1 || st.QueueLen != 0 {
		t.Fatalf("after the re-list: count %d, status %+v; want the lost push applied once", got, st)
	}
}

// dropOffers fails every doorbell Offer, as a caller does whose context
// ends between its directory Put and its ring.
type dropOffers struct{ core.Invoker }

func (d dropOffers) InvokeObject(ctx context.Context, inv core.Invocation) ([]any, error) {
	if inv.Ref.Type == statefun.TypeDoorbell && inv.Method == "Offer" {
		return nil, errors.New("offer dropped")
	}
	return d.Invoker.InvokeObject(ctx, inv)
}

// A push whose activation listed the instance but never rang strands
// nothing, though its sender never sends again and the doorbell keeps
// its nonce: a later push from another sender finds the queue nonempty
// and does not ring, and the engine's periodic listing (every 5 s)
// drains both messages, each exactly once.
func TestDispatchLostOfferFoundByPeriodicListing(t *testing.T) {
	rig := newDispatchRig(t)
	ctx := context.Background()
	conn := rig.client(t)
	x := countAddr(7)
	if err := statefun.NewSender(dropOffers{conn}, "a", 0).Send(ctx, x, "add", nil, ""); err == nil {
		t.Fatal("a send whose offer failed reported success")
	}
	begin := time.Now()
	if err := statefun.NewSender(conn, "b", 0).Send(ctx, x, "add", nil, ""); err != nil {
		t.Fatal(err)
	}
	rig.waitHandled(t, 2, 10*time.Second)
	t.Logf("both messages handled %v after the acked send", time.Since(begin))
	time.Sleep(200 * time.Millisecond) // a second application would land here
	if got := rig.count(t, conn, x); got != 2 {
		t.Fatalf("count %d after the listing, want each message applied once", got)
	}
}

// failFirstPush applies the first mailbox Push it forwards but reports
// an error, as a push whose response is lost does.
type failFirstPush struct {
	core.Invoker
	failed atomic.Bool
}

func (f *failFirstPush) InvokeObject(ctx context.Context, inv core.Invocation) ([]any, error) {
	res, err := f.Invoker.InvokeObject(ctx, inv)
	if err == nil && inv.Method == "Push" && f.failed.CompareAndSwap(false, true) {
		return nil, errors.New("push response lost")
	}
	return res, err
}

// A push that errors after applying leaves its activation to the
// sender's next push, which finds the queue longer than 1 and still
// rings: both messages are handled at once, not at the next listing.
func TestDispatchPushInDoubtActivatesNext(t *testing.T) {
	rig := newDispatchRig(t)
	ctx := context.Background()
	send := statefun.NewSender(&failFirstPush{Invoker: rig.client(t)}, "s", 0)
	x := countAddr(3)
	if err := send.Send(ctx, x, "add", nil, ""); err == nil {
		t.Fatal("a push whose response was lost reported success")
	}
	if err := send.Send(ctx, x, "add", nil, ""); err != nil {
		t.Fatal(err)
	}
	rig.waitHandled(t, 2, time.Second)
}

// A handler that keeps failing is retried with a doubling delay capped at
// 250 ms, not every 50 ms: about 10 passes in two seconds, not 40.
func TestDispatchFailingPassBacksOff(t *testing.T) {
	rig := newDispatchRig(t)
	send := statefun.NewSender(rig.client(t), "s", 0)
	if err := send.Send(context.Background(), statefun.Address{FnType: "poison", ID: "1"}, "m", nil, ""); err != nil {
		t.Fatal(err)
	}
	begin := rig.runner.passes.Load()
	time.Sleep(2 * time.Second)
	if n := rig.runner.passes.Load() - begin; n > 14 || n < 3 {
		t.Fatalf("%d passes over a failing handler in 2s, want 3-14", n)
	}
}
