package server

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/durability"
	"crucial/internal/membership"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/ring"
	"crucial/internal/rpc"
	"crucial/internal/storage/s3sim"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// startPair boots n1 and n2 at RF 2 on one directory and returns them with
// a persistent ref of the given type that n1 leads. reg2 (nil: builtins) is
// n2's registry.
func startPair(t *testing.T, typ string, leaseTTL time.Duration, reg2 *core.Registry) (n1, n2 *Node, dir *membership.Directory, ref core.Ref) {
	t.Helper()
	net := rpc.NewMemNetwork()
	dir = membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.RF, cfg.LeaseTTL = 2, leaseTTL
	n1 = startNode(t, cfg)
	cfg.ID, cfg.Addr = "n2", "n2"
	if reg2 != nil {
		cfg.Registry = reg2
	}
	n2 = startNode(t, cfg)
	return n1, n2, dir, refLedBy(t, n1, typ)
}

// refLedBy returns a ref of the given type whose two-member replica group
// n leads in its installed view.
func refLedBy(t *testing.T, n *Node, typ string) core.Ref {
	t.Helper()
	for i := 0; i < 1000; i++ {
		ref := core.Ref{Type: typ, Key: "k" + string(rune('a'+i%26)) + string(rune('a'+i/26))}
		if group, _ := n.replicaGroup(ref, true); len(group) == 2 && group[0] == n.cfg.ID {
			return ref
		}
	}
	t.Fatalf("no key led by %s", n.cfg.ID)
	return core.Ref{}
}

// gatedMap is the builtin Map whose Restore — the first thing an incoming
// transfer does, before it takes any lock — announces itself and parks
// until the gate opens, so a test decides when a pushed snapshot lands.
type gatedMap struct {
	core.Object
	arrived chan<- struct{}
	gate    <-chan struct{}
}

func (g gatedMap) Snapshot() ([]byte, error) { return g.Object.(core.Snapshotter).Snapshot() }

func (g gatedMap) Restore(data []byte) error {
	g.arrived <- struct{}{}
	<-g.gate
	return g.Object.(core.Snapshotter).Restore(data)
}

// Regression (nemesis seed 707, DESIGN.md §5c): apply versions are counts,
// so two diverged copies can count their way back to the same version. A
// coordinator left ahead of its group by two applied, never-acked ops
// replays their retries while a member that holds the older base executes
// them fresh — in the opposite order, since retries arrive in any order.
// After the second retry both copies report the same version while holding
// different states; the fork check used to ack it, the late repair push
// was dropped as "stale" on the version tie, and the member's copy kept
// not-found for an acknowledged Put, to be served once it became primary.
func TestForkCheckRefusesReplayAsymmetry(t *testing.T) {
	arrived := make(chan struct{}, 4) // one send per repair push, two pushes
	gate := make(chan struct{})
	reg2 := core.NewRegistry()
	reg2.MustRegister(core.TypeInfo{Name: objects.TypeMap, New: func(init []any) (core.Object, error) {
		m, err := objects.NewMap(init)
		return gatedMap{Object: m, arrived: arrived, gate: gate}, err
	}})
	n1, n2, _, ref := startPair(t, objects.TypeMap, 100*time.Millisecond, reg2)
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(openGate) // runs before the nodes' Crash: a failed run must not strand a parked handler
	ctx := context.Background()

	// Same base copy on both nodes (one genesis round), then two
	// non-commuting stamped ops applied at the coordinator only.
	base := core.Invocation{Ref: ref, Method: "Put", Args: []any{"k0", int64(0)}, Persist: true, ClientID: 9, Seq: 1}
	remove := core.Invocation{Ref: ref, Method: "Remove", Args: []any{"k1"}, Persist: true, ClientID: 7, Seq: 1}
	put := core.Invocation{Ref: ref, Method: "Put", Args: []any{"k1", int64(3)}, Persist: true, ClientID: 7, Seq: 2}
	if _, err := n1.invoke(ctx, base); err != nil {
		t.Fatal(err)
	}
	e1, _ := n1.lookupExisting(ref)
	e2, ok := n2.lookupExisting(ref)
	if !ok {
		t.Fatal("genesis round did not reach the member")
	}
	for _, inv := range []core.Invocation{remove, put} {
		if _, err := n1.applyOne(ctx, e1, inv); err != nil {
			t.Fatal(err)
		}
	}
	installs := n2.transfers.Load()

	// The retries arrive in the other order. Put: replayed at the
	// coordinator (version 3), executed at the member (1 -> 2).
	if _, err := n1.invoke(ctx, put); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("retry on a behind member: err = %v, want ErrRebalancing", err)
	}
	<-arrived // its repair push holds a version-3 snapshot, parked at the member
	// Remove: replayed at the coordinator (still 3), executed at the member
	// (2 -> 3). Versions now tie; the states do not.
	_, err := n1.invoke(ctx, remove)
	get := core.Invocation{Ref: ref, Method: "Get", Args: []any{"k1"}, Persist: true, ReadOnly: true}
	at1, _ := n1.applyOne(ctx, e1, get)
	at2, _ := n2.applyOne(ctx, e2, get)
	v2, _ := n2.DebugVersion(ref)
	if v2 != 3 || reflect.DeepEqual(at1, at2) {
		t.Fatalf("setup: member at version %d with k1=%v, coordinator k1=%v; want a version tie over different states", v2, at2, at1)
	}
	if !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("retry acked over diverged copies (err = %v): versions tie, replay counts do not", err)
	}
	<-arrived

	// Both repair pushes land on a version tie; they must win it.
	openGate()
	timedOut := false
	watchdog := time.AfterFunc(10*time.Second, func() {
		e2.mu.Lock()
		timedOut = true
		e2.cond.Broadcast()
		e2.mu.Unlock()
	})
	defer watchdog.Stop()
	e2.mu.Lock()
	for n2.transfers.Load() < installs+2 && !timedOut {
		e2.cond.Wait() // installTransfer broadcasts under e2.mu
	}
	e2.mu.Unlock()
	if timedOut {
		t.Fatal("repair push never installed at the member (dropped on the version tie?)")
	}
	s1, err := n1.snapshotEntry(ref, e1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := n2.snapshotEntry(ref, e2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version != s2.Version || !reflect.DeepEqual(s1.Dedup, s2.Dedup) {
		t.Fatalf("after repair: versions %d/%d, dedup windows equal = %v",
			s1.Version, s2.Version, reflect.DeepEqual(s1.Dedup, s2.Dedup))
	}

	// Converged: the retry now replays on both sides and is acked with the
	// recorded outcome, and the member's copy holds the Put.
	if _, err := n1.invoke(ctx, remove); err != nil {
		t.Fatalf("retry after repair: %v", err)
	}
	got, err := n2.applyOne(ctx, e2, get)
	if err != nil {
		t.Fatalf("read at the member: %v", err)
	}
	if !reflect.DeepEqual(got, at1) || !reflect.DeepEqual(got, []any{int64(3), true}) {
		t.Fatalf("member k1 = %v, coordinator holds %v", got, at1)
	}
}

// A round carries the fence of the view its group was computed from. One
// whose group predates a view change (it sat out a crashed lease holder's
// expiry in prepareWrite, say) must be refused by a member that has moved
// on — stamping the fence at send time would let it through.
func TestStaleGroupProposeFenced(t *testing.T) {
	n1, _, dir, ref := startPair(t, objects.TypeAtomicLong, 0, nil)
	ctx := context.Background()
	invs := []core.Invocation{{Ref: ref, Method: "IncrementAndGet", Persist: true}}

	group, view := n1.replicaGroup(ref, true)
	// View v+1: a directive on an unrelated key changes the fence and
	// leaves ref's group alone.
	dir.SetDirective("unrelated", []ring.NodeID{"n2"})
	_, _, err := n1.runRound(ctx, group, view, invs)
	if !errors.Is(err, core.ErrRebalancing) || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("round with view-v group at a view-v+1 member: err = %v, want a fenced ErrRebalancing", err)
	}
	group, view = n1.replicaGroup(ref, true)
	if _, _, err := n1.runRound(ctx, group, view, invs); err != nil {
		t.Fatalf("round with the current group refused: %v", err)
	}
}

// A group-commit round counts in crucial_server_batches_total from the
// multicast on, like smr_rounds: one that is ordered and then refused by the
// fork check was a batch round all the same, and the two counters must not
// drift apart under faults.
func TestBatchRoundCountedOnceOrdered(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	tel := telemetry.New()
	cfg := validConfig(net, dir)
	cfg.RF, cfg.Telemetry, cfg.Write = 2, tel, core.WritePolicy{MaxBatch: 4}
	n1 := startNode(t, cfg)
	cfg.ID, cfg.Addr, cfg.Telemetry = "n2", "n2", nil
	startNode(t, cfg)
	ref := refLedBy(t, n1, objects.TypeAtomicLong)
	ctx := context.Background()

	inc := func(seq uint64) core.Invocation {
		return core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true, ClientID: 5, Seq: seq}
	}
	if _, err := n1.invoke(ctx, inc(1)); err != nil {
		t.Fatal(err)
	}
	// The coordinator runs ahead by one unacked op; its retry replays here
	// and executes at the member.
	e1, _ := n1.lookupExisting(ref)
	if _, err := n1.applyOne(ctx, e1, inc(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.invoke(ctx, inc(2)); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("retry over diverged copies: err = %v, want ErrRebalancing", err)
	}
	m := tel.Metrics()
	batches := m.Counter(telemetry.MetServerBatches).Value()
	rounds := m.Counter(telemetry.MetServerSMRRounds).Value()
	if batches != 2 || rounds != 2 {
		t.Fatalf("%d batch rounds, %d ordering rounds; want 2 and 2 (one acked, one refused after ordering)", batches, rounds)
	}
}

// An invoke cut short by its own node's shutdown must answer the retryable
// ErrStopped, whatever the shutdown happened to break first (here: the
// peer connection a PROPOSE is parked on).
func TestRoundOnStoppedNodeAnswersErrStopped(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.RF = 2
	n1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n1.Crash() }()

	// n2 is a member that accepts PROPOSE and never answers it.
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	l, err := net.Listen("n2")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(func(_ context.Context, kind uint8, _ []byte) ([]byte, error) {
		if kind == KindPropose {
			parked <- struct{}{}
			<-release
		}
		return nil, nil
	})
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()
	dir.Join("n2", "n2")

	ref := refLedBy(t, n1, objects.TypeAtomicLong)
	done := make(chan error, 1)
	go func() {
		_, err := n1.invoke(context.Background(),
			core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true})
		done <- err
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("round ended before parking on the member: %v", err)
	}
	_ = n1.Crash()
	close(release) // the redialed PROPOSE must not sit out a peer timeout
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round still parked after its node stopped")
	}
}

// Every malformed round payload is rejected with an error, by the decoder
// and by the PROPOSE handler that meets it first, without a panic.
func TestRoundPayloadDecodeRejects(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))

	a := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "a"}, Method: "Get"}
	b := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "b"}, Method: "Get"}
	good := roundPayload(t, false, a, a)
	cases := map[string][]byte{
		"empty":           nil,
		"bad flag byte":   append([]byte{2}, good[1:]...),
		"empty container": totalorder.AppendBatch([]byte{roundExisting}, nil),
		"truncated part":  good[:len(good)-3],
		"mixed refs":      roundPayload(t, false, a, b),
		"garbage part":    totalorder.AppendBatch([]byte{roundGenesis}, [][]byte{[]byte("junk")}),
	}
	for name, payload := range cases {
		if _, _, err := decodeRoundPayload(payload); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if !n.deliver(totalorder.MsgID{Origin: "n9", Seq: 1}, payload) {
			// Every replica rejects it identically: a deterministic
			// outcome, not a skipped apply.
			t.Errorf("%s: delivery reported a rebalancing-class skip", name)
		}
		if name == "mixed refs" {
			continue // admission reads only the first part; delivery voids the round
		}
		body, err := core.EncodeValue(proposeMsg{
			ID: totalorder.MsgID{Origin: "n9", Seq: 2}, Payload: payload, Fence: dir.View().Fence()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.handlePropose(body); err == nil {
			t.Errorf("%s: proposed", name)
		}
	}
	if _, invs, err := decodeRoundPayload(good); err != nil || len(invs) != 2 {
		t.Fatalf("well-formed payload: %d invocations, err %v", len(invs), err)
	}
}

// WAL replay reads the one payload format whoever wrote the record: a
// genesis round of one and a group-commit round of three for the same ref
// replay to exactly the version and state the live applies produced, and
// replaying them again changes nothing.
func TestReplayMixedRecordsReachLiveVersion(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	live := startNode(t, validConfig(net, dir))
	cfg := validConfig(net, dir)
	cfg.ID, cfg.Addr = "n2", "n2"
	recovered := startNode(t, cfg)

	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "replay"}
	set := core.Invocation{Ref: ref, Method: "Set", Args: []any{int64(5)}, Persist: true, ClientID: 3, Seq: 1}
	inc := func(seq uint64) core.Invocation {
		return core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true, ClientID: 3, Seq: seq}
	}
	// The batched round carries a retry of Set: live, it replayed.
	records := []durability.Record{
		{Origin: "n1", Seq: 1, Payload: roundPayload(t, true, set)},
		{Origin: "n1", Seq: 2, Payload: roundPayload(t, false, inc(2), set, inc(3))},
	}
	for i := range records {
		id := totalorder.MsgID{Origin: "n9", Seq: records[i].Seq}
		if !live.deliver(id, records[i].Payload) {
			t.Fatalf("live apply of record %d skipped", i)
		}
		live.applyMu.Lock()
		records[i].Version = live.applied[id].Version
		live.applyMu.Unlock()
	}
	if records[0].Version != 1 || records[1].Version != 3 {
		t.Fatalf("live versions = %d, %d; want 1, 3", records[0].Version, records[1].Version)
	}
	for pass := 0; pass < 2; pass++ {
		for i, rec := range records {
			if applied, err := recovered.replayRecord(rec); err != nil || applied != (pass == 0) {
				t.Fatalf("pass %d record %d: applied = %v, err %v", pass, i, applied, err)
			}
		}
	}
	eLive, _ := live.lookupExisting(ref)
	eRec, _ := recovered.lookupExisting(ref)
	want, err := live.snapshotEntry(ref, eLive)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recovered.snapshotEntry(ref, eRec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || string(got.Snapshot) != string(want.Snapshot) ||
		!reflect.DeepEqual(got.Dedup, want.Dedup) {
		t.Fatalf("replayed copy (version %d) differs from the live one (version %d)", got.Version, want.Version)
	}
}

// A WAL record that is not a round payload — here the single-invocation
// format logs carried before rounds had one: a flag byte ahead of the bare
// encoded invocation — may hold an acknowledged write. Recovery must refuse
// to start the node over it, not skip it and come up with the write missing.
func TestRecoveryRefusesForeignWALRecord(t *testing.T) {
	store := s3sim.New(s3sim.Options{Profile: netsim.Zero(), ListLag: -1})
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "old"}
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true, ClientID: 1, Seq: 1}
	enc, err := core.EncodeInvocation(inc)
	if err != nil {
		t.Fatal(err)
	}
	wal := durability.OpenLog(durability.LogOptions{Store: store, Node: "n1"})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for seq, payload := range [][]byte{roundPayload(t, true, inc), append([]byte{roundExisting}, enc...)} {
		rec := durability.Record{Origin: "n1", Seq: uint64(seq + 1), Version: uint64(seq + 1), Payload: payload}
		if err := wal.Append(rec).Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wal.Close()

	cfg := validConfig(rpc.NewMemNetwork(), membership.NewDirectory(time.Hour))
	cfg.Durability, cfg.ColdStore = core.DurabilityPolicy{Enabled: true}, store
	n, err := Start(cfg)
	if err == nil {
		_ = n.Crash()
		t.Fatal("node started over a WAL record it could not read")
	}
	if !strings.Contains(err.Error(), "n1/2") {
		t.Fatalf("err = %v, want it to name record n1/2", err)
	}
}
