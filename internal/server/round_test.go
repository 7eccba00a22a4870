package server

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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
// n2's registry; peerTimeout (zero: the default) is both nodes'.
func startPair(t *testing.T, typ string, leaseTTL time.Duration, reg2 *core.Registry, peerTimeout ...time.Duration) (n1, n2 *Node, dir *membership.Directory, ref core.Ref) {
	t.Helper()
	net := rpc.NewMemNetwork()
	dir = membership.NewDirectory(time.Hour)
	cfg := validConfig(net, dir)
	cfg.RF, cfg.LeaseTTL = 2, leaseTTL
	if len(peerTimeout) > 0 {
		cfg.PeerCallTimeout = peerTimeout[0]
	}
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
// expiry in prepareWrite, say) must be refused — stamping the fence at
// send time would let it through. The coordinator refuses it before it
// applies or sends anything, and a member refuses an ACCEPT fenced on a
// view it has moved past (TestAcceptFencedOnViewMismatch).
func TestStaleGroupAcceptFenced(t *testing.T) {
	n1, n2, dir, ref := startPair(t, objects.TypeAtomicLong, 0, nil)
	ctx := context.Background()
	invs := []core.Invocation{{Ref: ref, Method: "IncrementAndGet", Persist: true}}

	group, view := n1.replicaGroup(ref, true)
	// View v+1: a directive on an unrelated key changes the fence and
	// leaves ref's group alone.
	dir.SetDirective("unrelated", []ring.NodeID{"n2"})
	_, _, err := n1.runRound(ctx, group, view, invs)
	if !errors.Is(err, core.ErrRebalancing) || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("round with view-v group at a view-v+1 node: err = %v, want a fenced ErrRebalancing", err)
	}
	if n1.DebugHasObject(ref) || n2.DebugHasObject(ref) {
		t.Fatal("a fenced genesis round created a copy")
	}
	group, view = n1.replicaGroup(ref, true)
	res, _, err := n1.runRound(ctx, group, view, invs)
	if err != nil {
		t.Fatalf("round with the current group refused: %v", err)
	}
	if got := res[0].results[0]; got != int64(1) {
		t.Fatalf("first acked increment returned %v: the fenced round applied", got)
	}
}

// A replicated write round counts in crucial_server_batch_size from the
// local apply on, like smr_rounds: one that is ordered and then refused by
// the fork check was a write round all the same, and the two must not
// drift apart under faults. Sequential writes never queue, so each is an
// inline round of one and none is a cut round (crucial_server_batches_total).
func TestBatchRoundCountedOnceOrdered(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	tel := telemetry.New()
	cfg := validConfig(net, dir)
	cfg.RF, cfg.Telemetry = 2, tel
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
	sizes := m.Histogram(telemetry.HistServerBatchSize).Snapshot()
	batches := m.Counter(telemetry.MetServerBatches).Value()
	rounds := m.Counter(telemetry.MetServerSMRRounds).Value()
	if sizes.Count != 2 || sizes.Sum != 2*time.Microsecond || rounds != 2 {
		t.Fatalf("%d write rounds carrying %d writes, %d ordering rounds; want 2, 2 and 2 (one acked, one refused after ordering)",
			sizes.Count, sizes.Sum/time.Microsecond, rounds)
	}
	if batches != 0 {
		t.Fatalf("%d cut rounds from sequential writes, want 0", batches)
	}
}

// An invoke cut short by its own node's shutdown must answer the retryable
// ErrStopped, whatever the shutdown happened to break first (here: the
// peer connection an ACCEPT is parked on).
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

	// n2 is a member that takes an ACCEPT and never answers it.
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	l, err := net.Listen("n2")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(func(_ context.Context, kind uint8, _ []byte) ([]byte, error) {
		if kind == KindAccept {
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
	close(release) // the redialed ACCEPT must not sit out a peer timeout
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
// and by the ACCEPT handler, without a panic and without admitting or
// applying anything.
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
		"another ref":     roundPayload(t, true, b),
	}
	for name, payload := range cases {
		if _, _, err := decodeRoundPayload(payload); err == nil && name != "another ref" {
			t.Errorf("%s: decoded", name)
		}
		body := acceptMsg{ID: totalorder.MsgID{Origin: "n9", Seq: 2}, Ref: a.Ref,
			At: position{Fence: dir.View().Fence(), Seq: 1}, Payload: payload}.encode()
		if _, err := n.handleAccept(context.Background(), body); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n.inflight.busy(a.Ref) || n.DebugObjectCount() != 0 {
			t.Fatalf("%s: left a round admitted or an object behind", name)
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
		body := acceptMsg{ID: totalorder.MsgID{Origin: "n9", Seq: records[i].Seq}, Ref: ref,
			At: position{Fence: dir.View().Fence(), Seq: uint64(i + 1)}, Payload: records[i].Payload}.encode()
		out, err := live.handleAccept(context.Background(), body)
		if err != nil {
			t.Fatalf("live apply of record %d: %v", i, err)
		}
		resp, err := decodeFinalResp(out)
		if err != nil {
			t.Fatal(err)
		}
		records[i].Version = resp.Version
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

// holdApplies makes n's applyOrdered park the first k rounds until the
// returned release runs, announcing each on the returned channel.
func holdApplies(t *testing.T, n *Node, k int32) (held <-chan struct{}, release func()) {
	t.Helper()
	arrived := make(chan struct{}, k)
	gate := make(chan struct{})
	var calls atomic.Int32
	n.beforeApply = func(core.Ref) {
		if calls.Add(1) <= k {
			arrived <- struct{}{}
			<-gate
		}
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the nodes crash: a failed run must not strand a handler
	return arrived, release
}

// Two coordinators for one ref in different views cannot both be acked.
// The old primary's round reaches a member that then installs the next
// view, whose primary is that member; the round is held there well past
// the old orphan TTL (ten peer timeouts). While it is in flight the new
// primary's round is refused, and once released it may not apply under a
// view the member has left, so neither is acked on state the other's
// group never saw. The retry after it is acked on a copy holding the
// released round's effect: the hand-off shipped it.
func TestTwoCoordinatorsInTwoViewsNotBothAcked(t *testing.T) {
	n1, n2, dir, ref := startPair(t, objects.TypeAtomicLong, 0, nil, 20*time.Millisecond)
	ctx := context.Background()
	add := func(seq uint64) core.Invocation {
		return core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true, ClientID: 4, Seq: seq}
	}
	if _, err := n1.invoke(ctx, add(1)); err != nil {
		t.Fatal(err)
	}

	held, release := holdApplies(t, n2, 2) // the ACCEPT and its redial
	oldDone := make(chan error, 1)
	go func() {
		_, err := n1.invoke(ctx, add(2))
		oldDone <- err
	}()
	<-held
	dir.SetDirective(ref.String(), []ring.NodeID{"n2", "n1"})
	time.Sleep(12 * n1.peerTimeout)
	if _, err := n2.invoke(ctx, core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)},
		Persist: true, ClientID: 5, Seq: 1}); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("new primary's round with the old one's in flight: err = %v, want ErrRebalancing", err)
	}
	release()
	if err := <-oldDone; err == nil {
		t.Fatal("old primary's round acked after its member moved to the next view")
	}
	for n2.inflight.busy(ref) {
		time.Sleep(time.Millisecond)
	}
	res, err := n2.invoke(ctx, core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)},
		Persist: true, ClientID: 5, Seq: 1})
	if err != nil {
		t.Fatalf("new primary's retry: %v", err)
	}
	if got := res[0].(int64); got != 3 {
		t.Fatalf("new primary acked %d, want 3 (the old round's effect shipped with the hand-off)", got)
	}
}

// A round that overtakes its predecessor at a member waits for it: round
// k is held in the member's apply while round k+1 arrives, and k+1 applies
// only after k. Both are acked, in order, and the copies end equal.
func TestAcceptAppliesInSeqOrder(t *testing.T) {
	n1, n2, _, ref := startPair(t, objects.TypeAtomicLong, 0, nil)
	ctx := context.Background()
	add := func() ([]any, error) {
		return n1.invoke(ctx, core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true})
	}
	if _, err := add(); err != nil {
		t.Fatal(err)
	}
	held, release := holdApplies(t, n2, 1)
	results := make(chan []any, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := add()
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
		if i == 0 {
			<-held // round k is at the member, held
		}
	}
	for !n2.inflight.busy(ref) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if v, _ := n2.DebugVersion(ref); v != 1 || len(results) != 0 {
		t.Fatalf("round k+1 applied (member version %d, %d acked) while round k was held", v, len(results))
	}
	release()
	got := []int64{(<-results)[0].(int64), (<-results)[0].(int64)}
	if !(got[0] == 2 && got[1] == 3 || got[0] == 3 && got[1] == 2) {
		t.Fatalf("acked %v, want 2 and 3", got)
	}
	s1, _ := n1.DebugSnapshot(ref)
	s2, _ := n2.DebugSnapshot(ref)
	v1, _ := n1.DebugVersion(ref)
	v2, _ := n2.DebugVersion(ref)
	if v1 != 3 || v2 != 3 || string(s1) != string(s2) {
		t.Fatalf("copies differ after the reordered rounds: versions %d/%d", v1, v2)
	}
}

// A view change releases a parked round at once: a round from a dead
// origin, or fenced on a view the member has left, must not hold its ref
// until the park bound runs out.
func TestParkedRoundLeavesOnViewChange(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "parked"}
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
	if _, err := n.handleAccept(context.Background(), acceptBody(t, dir, "n9", 1, true, inc)); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := n.handleAccept(context.Background(), acceptBody(t, dir, "n9", 3, false, inc))
		parked <- err
	}()
	for !n.inflight.busy(ref) {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	dir.SetDirective("elsewhere", []ring.NodeID{"n1"})
	if err := <-parked; !errors.Is(err, core.ErrRebalancing) || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("parked round after a view change: err = %v, want fenced", err)
	}
	if d := time.Since(start); d > n.waitTimeout()/2 {
		t.Fatalf("parked round left %v after the view change", d)
	}
	if n.inflight.busy(ref) {
		t.Fatal("released round still admitted")
	}
}

// A member whose copy diverged ahead of the primary's (here: two ops the
// primary never applied) still gets past a gap: its pull finds the
// primary's copy further along the current order, and although that state
// does not replace its own (a lower version), the lane resumes after it.
// The next round then applies, and its reply — a version the primary does
// not hold — is the fork check's to refuse; without the rule every later
// round of the ref would park and give up.
func TestGapPullAdoptsPositionOfOlderCopy(t *testing.T) {
	n1, n2, dir, ref := startPair(t, objects.TypeAtomicLong, 0, nil, 50*time.Millisecond)
	ctx := context.Background()
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
	if _, err := n1.invoke(ctx, inc); err != nil { // seq 1 at both
		t.Fatal(err)
	}
	e2, _ := n2.lookupExisting(ref)
	for i := 0; i < 2; i++ {
		if _, err := n2.applyOne(ctx, e2, inc); err != nil {
			t.Fatal(err)
		}
	}
	// Seq 2 applies at the primary only: its ACCEPT is lost.
	fence := dir.View().Fence()
	if _, _, err := n1.sequence(ctx, totalorder.MsgID{Origin: "n1", Seq: 2}, fence, false,
		[]core.Invocation{inc}, nil); err != nil {
		t.Fatal(err)
	}
	body := acceptMsg{ID: totalorder.MsgID{Origin: "n1", Seq: 3}, Ref: ref,
		At: position{Fence: fence, Seq: 3}, Payload: roundPayload(t, false, inc)}.encode()
	out, err := n2.handleAccept(ctx, body)
	if err != nil {
		t.Fatalf("round after the gap: %v", err)
	}
	resp, _ := decodeFinalResp(out)
	if v1, _ := n1.DebugVersion(ref); resp.Version == v1+1 {
		t.Fatalf("member reported version %d, the primary's next; want its own diverged count", resp.Version)
	}
}
