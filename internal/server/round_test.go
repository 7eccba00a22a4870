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

// Regression (nemesis seed 707, DESIGN.md §5c): a coordinator left ahead
// of its group by two applied, never-acked rounds sees their retries
// arrive in the other order. Under apply versions the member executed
// them fresh on its older base while the coordinator replayed them, and
// the two copies counted their way back to one version over different
// states. Under positions the first retry names the coordinator's copy as
// its predecessor, which the member does not stand at: it is refused
// before the member runs it, the member adopts the coordinator's copy, and
// the next retry replays on both copies and is acked.
func TestForkCheckRefusesReplayAsymmetry(t *testing.T) {
	var freshPuts atomic.Int32 // Puts of k1 the member runs
	reg2 := core.NewRegistry()
	reg2.MustRegister(core.TypeInfo{Name: objects.TypeMap, New: func(init []any) (core.Object, error) {
		m, err := objects.NewMap(init)
		return countedMap{Object: m, puts: &freshPuts}, err
	}})
	n1, n2, _, ref := startPair(t, objects.TypeMap, 0, reg2, 50*time.Millisecond)
	ctx := context.Background()

	// Same base copy on both nodes (one genesis round), then two
	// non-commuting stamped ops applied at the coordinator only: their
	// ACCEPTs were lost.
	base := core.Invocation{Ref: ref, Method: "Put", Args: []any{"k0", int64(0)}, Persist: true, ClientID: 9, Seq: 1}
	remove := core.Invocation{Ref: ref, Method: "Remove", Args: []any{"k1"}, Persist: true, ClientID: 7, Seq: 1}
	put := core.Invocation{Ref: ref, Method: "Put", Args: []any{"k1", int64(3)}, Persist: true, ClientID: 7, Seq: 2}
	if _, err := n1.invoke(ctx, base); err != nil {
		t.Fatal(err)
	}
	for _, inv := range []core.Invocation{remove, put} {
		sequenceLocally(t, n1, inv)
	}
	e2 := pinned(t, n2, ref)

	// The retries arrive in the other order. Put: replayed at the
	// coordinator, and refused at the member, which stands two rounds
	// behind the retry's predecessor and pulls.
	if _, err := n1.invoke(ctx, put); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("retry on a behind member: err = %v, want ErrRebalancing", err)
	}
	get := core.Invocation{Ref: ref, Method: "Get", Args: []any{"k1"}, Persist: true, ReadOnly: true}
	at1, _ := n1.applyOne(ctx, pinned(t, n1, ref), get)
	at2, _ := n2.applyOne(ctx, e2, get)
	if !reflect.DeepEqual(at1, at2) || !reflect.DeepEqual(at2, []any{int64(3), true}) {
		t.Fatalf("after the refused retry: member k1 = %v, coordinator k1 = %v; want both the Put", at2, at1)
	}
	// Remove: replayed on both copies, acked.
	if _, err := n1.invoke(ctx, remove); err != nil {
		t.Fatalf("retry once the member holds the coordinator's copy: %v", err)
	}
	// (A Map's state body lists its keys in no fixed order: compare reads.)
	if s1, s2 := snapshotOf(t, n1, ref), snapshotOf(t, n2, ref); s1.At != s2.At || !reflect.DeepEqual(s1.Dedup, s2.Dedup) {
		t.Fatalf("copies at %v and %v, dedup windows equal = %v, after the retries",
			s1.At, s2.At, reflect.DeepEqual(s1.Dedup, s2.Dedup))
	}
	if got, _ := n2.applyOne(ctx, e2, get); !reflect.DeepEqual(got, []any{int64(3), true}) {
		t.Fatalf("member k1 = %v after an acked Put", got)
	}
	if n := freshPuts.Load(); n != 0 {
		t.Fatalf("the member ran the Put retry fresh %d times on its older base", n)
	}
}

// countedMap is the builtin Map counting the Puts of k1 it runs.
type countedMap struct {
	core.Object
	puts *atomic.Int32
}

func (c countedMap) Call(ctl core.Ctl, method string, args []any) ([]any, error) {
	if method == "Put" && len(args) > 0 && args[0] == "k1" {
		c.puts.Add(1)
	}
	return c.Object.Call(ctl, method, args)
}

func (c countedMap) Snapshot() ([]byte, error) { return c.Object.(core.Snapshotter).Snapshot() }

func (c countedMap) Restore(data []byte) error { return c.Object.(core.Snapshotter).Restore(data) }

// sequenceLocally applies inv at its primary n as the next round of its
// ref, as a round whose ACCEPTs were all lost would.
func sequenceLocally(t *testing.T, n *Node, inv core.Invocation) acceptMsg {
	t.Helper()
	_, view := n.replicaGroup(inv.Ref, true)
	m := acceptMsg{ID: totalorder.MsgID{Origin: string(n.cfg.ID), Seq: n.seq.Add(1)}, Ref: inv.Ref,
		Fence: view.Fence(), At: position{Epoch: view.ID}}
	if out := n.sequence(context.Background(), pinned(t, n, inv.Ref), &m, false,
		[]core.Invocation{inv}, make([]opResult, 1), nil); out.err != nil {
		t.Fatal(out.err)
	}
	return m
}

// snapshotOf is ref's copy at n.
func snapshotOf(t *testing.T, n *Node, ref core.Ref) transferMsg {
	t.Helper()
	msg, err := n.snapshotEntry(pinned(t, n, ref))
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// After a view change that moves a ref's group, its primary opens the ref
// before its first apply: it polls the group and adopts a member's copy
// that is ahead of its own. Here a coordinator the primary never heard of
// left the member a round ahead under the new view; the primary's first
// write applies on top of it, and both copies end equal.
func TestOpenAdoptsMemberCopyAhead(t *testing.T) {
	n1, n2, dir, ref := startPair(t, objects.TypeAtomicLong, 0, nil)
	ctx := context.Background()
	add := core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	if _, err := n1.invoke(ctx, add); err != nil {
		t.Fatal(err)
	}
	// Two flips move the group away from n1 and back: n1's open does not
	// carry over.
	dir.SetDirective(ref.String(), []ring.NodeID{"n2", "n1"})
	dir.SetDirective(ref.String(), []ring.NodeID{"n1", "n2"})
	v := dir.View()
	e1, s1, _ := n2.DebugPosition(ref)
	set := acceptMsg{ID: totalorder.MsgID{Origin: "n9", Seq: 1}, Ref: ref, Fence: v.Fence(),
		Prev: position{Epoch: e1, Seq: s1}, At: position{Epoch: v.ID, Seq: 1},
		Payload: roundPayload(t, false, core.Invocation{Ref: ref, Method: "Set", Args: []any{int64(5)}, Persist: true})}
	if _, err := n2.handleAccept(ctx, set.encode()); err != nil {
		t.Fatal(err)
	}
	res, err := n1.invoke(ctx, add)
	if err != nil {
		t.Fatalf("first write after the view change: %v", err)
	}
	if got := res[0].(int64); got != 6 {
		t.Fatalf("first write after the view change returned %d, want 6: it applied before the open adopted the member's copy", got)
	}
	if a, b := snapshotOf(t, n1, ref), snapshotOf(t, n2, ref); a.At != b.At || a.At != (position{Epoch: v.ID, Seq: 2}) ||
		string(a.Snapshot) != string(b.Snapshot) {
		t.Fatalf("copies at %v and %v after the write, want both at (%d, 2) and equal", a.At, b.At, v.ID)
	}
}

// A primary that restarts under an unchanged view (dso-server's chaos
// bounce: the directory never saw it go) recovers an older checkpoint of
// its copy. Its first round opens the ref with a poll, adopts the member's
// copy, which is ahead, and follows it: a stamped retry of a write the
// member already applied replays instead of running twice, and the next
// write applies once at both copies.
func TestRestartUnderUnchangedViewOpensWithPoll(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	store := s3sim.New(s3sim.Options{Profile: netsim.Zero(), ListLag: -1})
	cfg := validConfig(net, dir)
	cfg.RF, cfg.ColdStore, cfg.Telemetry = 2, store, telemetry.New()
	cfg.Durability = core.DurabilityPolicy{Enabled: true, SyncEvery: -1, SnapshotInterval: -1}
	n1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := validConfig(net, dir)
	cfg2.ID, cfg2.Addr, cfg2.RF = "n2", "n2", 2
	n2 := startNode(t, cfg2)
	ref := refLedBy(t, n1, objects.TypeAtomicLong)
	ctx := context.Background()
	add := func(n *Node, seq uint64) int64 {
		t.Helper()
		res, err := n.invoke(ctx, core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)},
			Persist: true, ClientID: 8, Seq: seq})
		if err != nil {
			t.Fatalf("write %d: %v", seq, err)
		}
		return res[0].(int64)
	}
	add(n1, 1)
	add(n1, 2)
	if err := n1.DebugCheckpoint(); err != nil {
		t.Fatal(err)
	}
	add(n1, 3) // in no checkpoint
	_ = n1.Crash()
	view := dir.View()
	if n1, err = Start(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n1.Crash() })
	if dir.View().ID != view.ID {
		t.Fatal("the restart installed a view")
	}
	if _, seq, _ := n1.DebugPosition(ref); seq != 2 {
		t.Fatalf("restarted primary recovered its copy at seq %d, want the checkpoint's 2", seq)
	}
	if got := add(n1, 3); got != 3 {
		t.Fatalf("retry of write 3 returned %d, want its recorded 3", got)
	}
	if pulls := cfg.Telemetry.Metrics().Counter(telemetry.MetServerPulls).Value(); pulls != 1 {
		t.Fatalf("%d pulls by the restarted primary, want 1: its first round opens with a poll", pulls)
	}
	if got := add(n1, 4); got != 4 {
		t.Fatalf("write 4 returned %d, want 4", got)
	}
	a, b := snapshotOf(t, n1, ref), snapshotOf(t, n2, ref)
	if a.At != b.At || string(a.Snapshot) != string(b.Snapshot) {
		t.Fatalf("copies at %v and %v differ after the restart", a.At, b.At)
	}
	got, err := n2.applyOne(ctx, pinned(t, n2, ref), core.Invocation{Ref: ref, Method: "Get", ReadOnly: true})
	if err != nil || got[0] != int64(4) {
		t.Fatalf("member's copy counts %v (err %v), want 4: a round ran twice", got, err)
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
	res := make([]opResult, len(invs))
	_, err := n1.runRound(ctx, pinned(t, n1, ref), group, view, invs, res)
	if !errors.Is(err, core.ErrRebalancing) || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("round with view-v group at a view-v+1 node: err = %v, want a fenced ErrRebalancing", err)
	}
	if n1.DebugHasObject(ref) || n2.DebugHasObject(ref) {
		t.Fatal("a fenced genesis round created a copy")
	}
	group, view = n1.replicaGroup(ref, true)
	_, err = n1.runRound(ctx, pinned(t, n1, ref), group, view, invs, res)
	if err != nil {
		t.Fatalf("round with the current group refused: %v", err)
	}
	if got := res[0].results[0]; got != int64(1) {
		t.Fatalf("first acked increment returned %v: the fenced round applied", got)
	}
}

// A replicated write round counts in crucial_server_batch_size from the
// local apply on, like smr_rounds: one that is ordered and then refused by
// a member was a write round all the same, and the two must not drift
// apart under faults. Sequential writes never queue, so each is an inline
// round of one and none is a cut round (crucial_server_batches_total).
func TestBatchRoundCountedOnceOrdered(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	tel := telemetry.New()
	cfg := validConfig(net, dir)
	cfg.RF, cfg.Telemetry, cfg.PeerCallTimeout = 2, tel, 50*time.Millisecond
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
	// The coordinator runs ahead by one unacked round, so the member
	// refuses the next: it stands behind that round's predecessor.
	sequenceLocally(t, n1, inc(2))
	if _, err := n1.invoke(ctx, inc(2)); !errors.Is(err, core.ErrRebalancing) {
		t.Fatalf("retry on a behind member: err = %v, want ErrRebalancing", err)
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
		switch kind {
		case KindFetch: // the open's poll: no copy here
			return fetchResp{}.encode()
		case KindAccept:
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

// Every malformed round payload, and one on another ref than its ACCEPT's,
// is rejected with an error, by the decoder and by the ACCEPT handler,
// without a panic and without admitting or applying anything.
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
		if _, _, err := readRound(payload, a.Ref, nil); err == nil {
			t.Errorf("%s: decoded", name)
		}
		body := acceptMsg{ID: totalorder.MsgID{Origin: "n9", Seq: 2}, Ref: a.Ref, Fence: dir.View().Fence(),
			At: position{Epoch: dir.View().ID, Seq: 1}, Payload: payload}.encode()
		if _, err := n.handleAccept(context.Background(), body); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if busyAt(n, a.Ref) || n.DebugObjectCount() != 0 {
			t.Fatalf("%s: left a round admitted or an object behind", name)
		}
	}
	if _, invs, err := readRound(good, a.Ref, nil); err != nil || len(invs) != 2 {
		t.Fatalf("well-formed payload: %d invocations, err %v", len(invs), err)
	}
}

// WAL replay reads the one payload format whoever wrote the record: a
// genesis round of one and a group-commit round of three for the same ref
// replay to exactly the position, state and dedup window the live applies
// produced, and replaying them again changes nothing.
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
		seq := uint64(i + 1)
		body := acceptMsg{ID: totalorder.MsgID{Origin: "n9", Seq: seq}, Ref: ref, Fence: dir.View().Fence(),
			Prev: position{Epoch: dir.View().ID, Seq: seq - 1}, At: position{Epoch: dir.View().ID, Seq: seq},
			Payload: records[i].Payload}
		if seq == 1 {
			body.Prev = position{}
		}
		if _, err := live.handleAccept(context.Background(), body.encode()); err != nil {
			t.Fatalf("live apply of record %d: %v", i, err)
		}
		records[i].Epoch, records[i].Version = body.At.Epoch, body.At.Seq
	}
	for pass := 0; pass < 2; pass++ {
		for i, rec := range records {
			if applied, err := recovered.replayRecord(rec); err != nil || applied != (pass == 0) {
				t.Fatalf("pass %d record %d: applied = %v, err %v", pass, i, applied, err)
			}
		}
	}
	want, got := snapshotOf(t, live, ref), snapshotOf(t, recovered, ref)
	if got.At != want.At || want.At.Seq != 2 || string(got.Snapshot) != string(want.Snapshot) ||
		!reflect.DeepEqual(got.Dedup, want.Dedup) {
		t.Fatalf("replayed copy (at %v) differs from the live one (at %v)", got.At, want.At)
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
		rec := durability.Record{Origin: "n1", Seq: uint64(seq + 1), Epoch: 1, Version: uint64(seq + 1), Payload: payload}
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
	for busyAt(n2, ref) {
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
	for !busyAt(n2, ref) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if _, seq, _ := n2.DebugPosition(ref); seq != 1 || len(results) != 0 {
		t.Fatalf("round k+1 applied (member at seq %d, %d acked) while round k was held", seq, len(results))
	}
	release()
	got := []int64{(<-results)[0].(int64), (<-results)[0].(int64)}
	if !(got[0] == 2 && got[1] == 3 || got[0] == 3 && got[1] == 2) {
		t.Fatalf("acked %v, want 2 and 3", got)
	}
	a, b := snapshotOf(t, n1, ref), snapshotOf(t, n2, ref)
	if a.At.Seq != 3 || a.At != b.At || string(a.Snapshot) != string(b.Snapshot) {
		t.Fatalf("copies differ after the reordered rounds: at %v and %v", a.At, b.At)
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
	for !busyAt(n, ref) {
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
	if busyAt(n, ref) {
		t.Fatal("released round still admitted")
	}
}

// A member that lost a round's ACCEPT parks the next round, which names
// the lost one as its predecessor, and pulls past the gap: the primary's
// copy is ahead, so the member takes its state and its position together,
// stands at the parked round's predecessor, and applies it. Both copies
// end at one position with one state.
func TestGapPullAdoptsPositionOfOlderCopy(t *testing.T) {
	n1, n2, _, ref := startPair(t, objects.TypeAtomicLong, 0, nil, 50*time.Millisecond)
	ctx := context.Background()
	inc := core.Invocation{Ref: ref, Method: "IncrementAndGet", Persist: true}
	if _, err := n1.invoke(ctx, inc); err != nil { // seq 1 at both
		t.Fatal(err)
	}
	lost := sequenceLocally(t, n1, inc) // seq 2: its ACCEPT is lost
	// Seq 3 reaches the member before the primary applies it (as a
	// coordinator's own apply and a member's race in real runs).
	m := lost
	m.ID.Seq++
	m.Prev, m.At = lost.At, lost.At.next(lost.At.Epoch)
	m.Payload = roundPayload(t, false, inc)
	if _, err := n2.handleAccept(ctx, m.encode()); err != nil {
		t.Fatalf("round after the gap: %v", err)
	}
	e, s, _ := n2.DebugPosition(ref)
	got, err := n2.applyOne(ctx, pinned(t, n2, ref), core.Invocation{Ref: ref, Method: "Get", ReadOnly: true})
	if (position{Epoch: e, Seq: s}) != m.At || err != nil || got[0] != int64(3) {
		t.Fatalf("member at (%d, %d) holding %v (err %v) after the gap closed, want %v holding 3", e, s, got, err, m.At)
	}
}
