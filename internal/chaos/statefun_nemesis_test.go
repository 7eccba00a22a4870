// Stateful-functions nemesis: the exactly-once-visible contract of
// DESIGN.md §5i checked end to end through every prior subsystem at
// once — messages pushed through the at-most-once write path with group
// commit on, drained by a dispatch engine over lease-cached reads,
// handler effects (state + forwards) committed atomically, everything
// WAL-logged — while links fault and then the WHOLE cluster is killed
// mid-stream and restarted from cold storage. No acked message may be
// lost, no message may be applied twice, and every applied message must
// be forwarded downstream exactly once.
package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/cluster"
	"crucial/internal/core"
	"crucial/internal/netsim"
	"crucial/internal/rpc"
	"crucial/internal/statefun"
	"crucial/internal/storage/s3sim"
	"crucial/internal/telemetry"
)

// sfMsg is the message body senders push at accumulator instances: the
// sending stream's identity and its per-stream counter.
type sfMsg struct {
	Sender string
	K      uint64
}

// sfAccState is an accumulator instance's private state: per-stream
// high-water marks, the total applied, and a double-apply counter that
// must stay zero.
type sfAccState struct {
	Applied map[string]uint64
	Count   int64
	Dups    int64
}

// sfSinkState is the sink instance's private state: per-source message
// counts (each accumulator forwards every applied message here).
type sfSinkState struct {
	BySource map[string]int64
	Count    int64
}

// sfHandlers builds the handler set shared by the pre- and post-crash
// engines. The accumulator records each message in state and forwards it
// to the sink in the same atomic commit; the sink counts per source.
func sfHandlers(t *testing.T) *statefun.HandlerSet {
	t.Helper()
	hs := statefun.NewHandlerSet()
	if err := hs.Register("acc", func(c *statefun.Ctx, m statefun.Msg) error {
		var body sfMsg
		if err := m.Body(&body); err != nil {
			return err
		}
		var st sfAccState
		if _, err := c.State(&st); err != nil {
			return err
		}
		if st.Applied == nil {
			st.Applied = make(map[string]uint64)
		}
		if body.K <= st.Applied[body.Sender] {
			// A message applied twice: the exactly-once violation this
			// whole test exists to catch.
			st.Dups++
		} else {
			st.Applied[body.Sender] = body.K
			st.Count++
			if err := c.Send(statefun.Address{FnType: "sink", ID: "s"}, "fwd",
				sfMsg{Sender: c.Self().ID, K: body.K}); err != nil {
				return err
			}
		}
		return c.SetState(st)
	}); err != nil {
		t.Fatal(err)
	}
	if err := hs.Register("sink", func(c *statefun.Ctx, m statefun.Msg) error {
		var body sfMsg
		if err := m.Body(&body); err != nil {
			return err
		}
		var st sfSinkState
		if _, err := c.State(&st); err != nil {
			return err
		}
		if st.BySource == nil {
			st.BySource = make(map[string]int64)
		}
		st.BySource[body.Sender]++
		st.Count++
		return c.SetState(st)
	}); err != nil {
		t.Fatal(err)
	}
	return hs
}

// sfEngine starts a dispatch engine (with its own client) over clu.
func sfEngine(t *testing.T, clu *cluster.Cluster, hs *statefun.HandlerSet) (*statefun.Engine, func()) {
	t.Helper()
	conn, err := clu.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	proc := statefun.NewProc(conn, hs, statefun.ProcOptions{})
	eng := statefun.NewEngine(statefun.EngineConfig{
		Invoker: conn,
		Runner:  proc,
		Workers: 4,
	})
	return eng, func() {
		eng.Close()
		_ = conn.Close()
	}
}

// TestNemesisStatefunKillEverything runs three phases over one cold
// store:
//
//  1. Sender streams push messages at accumulator instances through link
//     drops and delays; a dispatch engine drains them concurrently.
//  2. The whole cluster is killed mid-stream. Each stream stops at its
//     first error: everything acked before it is durable by contract,
//     the failed push is in doubt (≤1 per stream).
//  3. A fresh cluster boots from the cold store, a fresh engine drains
//     every queue and outbox dry, and the books must balance: per
//     (stream, instance) acked ≤ applied ≤ acked + in-doubt, zero
//     double-applies, and the sink holds exactly one forward per
//     applied message.
func TestNemesisStatefunKillEverything(t *testing.T) {
	const seed = 1010
	const accInstances = 3
	const streams = 2 // sender goroutines, each touching every instance
	store := s3sim.New(s3sim.Options{Profile: netsim.Zero(), ListLag: -1})
	dur := core.DurabilityPolicy{
		Enabled:          true,
		SyncEvery:        4,
		SnapshotInterval: 150 * time.Millisecond,
		SegmentBytes:     32 << 10,
	}
	tel := telemetry.New()
	eng := chaos.New(rpc.NewMemNetwork(), chaos.Options{Seed: seed, Telemetry: tel})
	c1, err := cluster.StartLocal(cluster.Options{
		Nodes:                3,
		RF:                   2,
		Chaos:                eng,
		Telemetry:            tel,
		ClientRetry:          nemesisRetry(),
		ClientAttemptTimeout: 200 * time.Millisecond,
		PeerCallTimeout:      250 * time.Millisecond,
		LeaseTTL:             150 * time.Millisecond,
		ClientCache:          true,
		Durability:           dur,
		ColdStore:            store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	hs := sfHandlers(t)
	_, stopEngine1 := sfEngine(t, c1, hs)

	// ---- Phase 1+2: faulted sender streams, then kill everything --------
	// acked[stream][inst] counts pushes acked before the stream stopped;
	// inDoubt[stream][inst] is 1 when the stream died on that instance.
	// A push under active link faults can legitimately take seconds
	// (each dropped frame costs an attempt timeout), so streams get
	// generous per-op timeouts and only a hard error — retry budget
	// exhausted, which is what the cluster kill produces — stops them.
	acked := make([][]uint64, streams)
	inDoubt := make([][]uint64, streams)
	var ackedTotal atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < streams; w++ {
		acked[w] = make([]uint64, accInstances)
		inDoubt[w] = make([]uint64, accInstances)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := c1.NewClient()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sender := statefun.NewSender(conn, fmt.Sprintf("stream-%d", w), 0)
			for k := uint64(1); ; k++ {
				for i := 0; i < accInstances; i++ {
					select {
					case <-stop:
						return
					default:
					}
					to := statefun.Address{FnType: "acc", ID: fmt.Sprintf("a%d", i)}
					body, err := statefun.EncodeBody(sfMsg{Sender: sender.From(), K: k})
					if err != nil {
						t.Error(err)
						return
					}
					cctx, ccancel := context.WithTimeout(ctx, 20*time.Second)
					err = sender.Send(cctx, to, "add", body, "")
					ccancel()
					switch {
					case err == nil:
						acked[w][i] = k
						ackedTotal.Add(1)
					case errors.Is(err, statefun.ErrMailboxFull):
						// Backpressure: rejected, not in doubt. The K
						// value is skipped for this instance (gaps are
						// fine — Applied tracks the max).
					default:
						// In doubt: the push may or may not have landed
						// before the lights went out. Stop the stream so
						// at most one message per (stream, instance) is
						// unaccounted.
						inDoubt[w][i] = 1
						return
					}
					time.Sleep(time.Duration(1+(w+int(k))%3) * time.Millisecond)
				}
			}
		}(w)
	}

	// Fault windows are paced by acked progress, not wall clock, so each
	// rule is guaranteed to see real traffic: drops while the first batch
	// flows, delays while the second flows, then a clean stretch so the
	// kill lands on a cluster that is healthy but mid-stream.
	waitAcked := func(target int64) {
		dl := time.Now().Add(30 * time.Second)
		for ackedTotal.Load() < target && time.Now().Before(dl) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	eng.AddRule(chaos.Rule{Faults: chaos.LinkFaults{Drop: 0.08}})
	waitAcked(8)
	eng.ClearRules()
	eng.AddRule(chaos.Rule{Faults: chaos.LinkFaults{
		Delay: 0.4, DelayBy: 2 * time.Millisecond, DelayJitter: 4 * time.Millisecond}})
	waitAcked(16)
	eng.ClearRules()
	waitAcked(30)
	if ackedTotal.Load() == 0 {
		t.Fatal("no push was acked before the kill; nothing to test")
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("kill everything: %v", err)
	}
	close(stop)
	wg.Wait()
	stopEngine1()
	if t.Failed() {
		t.FailNow()
	}
	if eng.Counts().Total() == 0 {
		t.Error("fault plan injected no faults — the schedule did not engage")
	}

	// ---- Phase 3: restart from the cold store, drain, audit -------------
	tel2 := telemetry.New()
	c2, err := cluster.StartLocal(cluster.Options{
		Nodes: 3, RF: 2, Telemetry: tel2,
		LeaseTTL: 150 * time.Millisecond, ClientCache: true,
		Durability: dur, ColdStore: store,
	})
	if err != nil {
		t.Fatalf("restart from cold store: %v", err)
	}
	defer c2.Close()
	_, stopEngine2 := sfEngine(t, c2, hs)
	defer stopEngine2()

	conn, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Wait until every queue and outbox is dry.
	addrs := make([]statefun.Address, 0, accInstances+1)
	for i := 0; i < accInstances; i++ {
		addrs = append(addrs, statefun.Address{FnType: "acc", ID: fmt.Sprintf("a%d", i)})
	}
	addrs = append(addrs, statefun.Address{FnType: "sink", ID: "s"})
	deadline := time.Now().Add(45 * time.Second)
	for {
		dry := true
		for _, a := range addrs {
			st, err := statefun.StatusOf(ctx, conn, a, 0)
			if err != nil || st.QueueLen > 0 || st.OutboxLen > 0 {
				dry = false
				break
			}
		}
		if dry {
			break
		}
		if time.Now().After(deadline) {
			for _, a := range addrs {
				st, err := statefun.StatusOf(ctx, conn, a, 0)
				t.Logf("stuck %s: %+v err=%v", a, st, err)
			}
			t.Fatal("queues/outboxes did not drain after recovery")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v := tel2.Metrics().Counter(telemetry.MetWALReplays).Value(); v == 0 {
		t.Error("recovery replayed no WAL records: the recovered mailboxes came from nowhere")
	}

	// Audit the books. Per (stream, instance): everything acked must be
	// applied (durability), and at most the one in-doubt message beyond
	// that (no invented messages). Double-applies must be zero.
	var totalApplied int64
	for i := 0; i < accInstances; i++ {
		a := statefun.Address{FnType: "acc", ID: fmt.Sprintf("a%d", i)}
		var st sfAccState
		ok, err := statefun.StateOf(ctx, conn, a, 0, &st)
		if err != nil || !ok {
			t.Fatalf("read %s state: ok=%v err=%v", a, ok, err)
		}
		if st.Dups != 0 {
			t.Errorf("%s applied %d messages twice", a, st.Dups)
		}
		for w := 0; w < streams; w++ {
			stream := fmt.Sprintf("stream-%d", w)
			applied := st.Applied[stream]
			if applied < acked[w][i] {
				t.Errorf("%s lost acked messages from %s: applied max %d < acked %d",
					a, stream, applied, acked[w][i])
			}
			if applied > acked[w][i]+inDoubt[w][i] {
				t.Errorf("%s has more from %s than acked+in-doubt: %d > %d+%d",
					a, stream, applied, acked[w][i], inDoubt[w][i])
			}
		}
		totalApplied += st.Count
	}
	var sink sfSinkState
	ok, err := statefun.StateOf(ctx, conn, statefun.Address{FnType: "sink", ID: "s"}, 0, &sink)
	if err != nil || !ok {
		t.Fatalf("read sink state: ok=%v err=%v", ok, err)
	}
	if sink.Count != totalApplied {
		t.Errorf("sink got %d forwards, sources applied %d: outbox delivery not exactly-once",
			sink.Count, totalApplied)
	}
	for i := 0; i < accInstances; i++ {
		a := statefun.Address{FnType: "acc", ID: fmt.Sprintf("a%d", i)}
		var st sfAccState
		if _, err := statefun.StateOf(ctx, conn, a, 0, &st); err != nil {
			t.Fatal(err)
		}
		if got := sink.BySource[a.ID]; got != st.Count {
			t.Errorf("sink counted %d from %s, source applied %d", got, a, st.Count)
		}
	}
}
