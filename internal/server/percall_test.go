package server

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"crucial/internal/core"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/telemetry"
	"crucial/internal/totalorder"
)

// roundBlob is an argument type outside the tag codec's set: it takes the
// gob fallback, whose size InvocationSize does not bound.
type roundBlob struct{ B []byte }

func init() { core.RegisterValue(roundBlob{}) }

// A round payload appended in place is byte for byte the flag and the
// batch container of the separately encoded invocations, whether a part's
// length prefix is as wide as its bound's or not.
func TestRoundPayloadAppendedInPlace(t *testing.T) {
	ref := core.Ref{Type: objects.TypeKV, Key: "k"}
	put := func(n int) core.Invocation {
		return core.Invocation{Ref: ref, Method: "Put", Args: []any{make([]byte, n)}, ClientID: 3, Seq: 9}
	}
	blob := core.Invocation{Ref: ref, Method: "Put", Args: []any{roundBlob{B: make([]byte, 20000)}}}
	for _, invs := range [][]core.Invocation{
		{{Ref: ref, Method: "Get"}},
		{put(40), put(80), put(100)}, // parts just under and over 127 bytes
		{put(16300), put(17000)},
		{blob, put(1), blob},
	} {
		for _, genesis := range []bool{false, true} {
			parts := make([][]byte, len(invs))
			for i, inv := range invs {
				var err error
				if parts[i], err = core.EncodeInvocation(inv); err != nil {
					t.Fatal(err)
				}
			}
			flag := roundExisting
			if genesis {
				flag = roundGenesis
			}
			want := totalorder.AppendBatch([]byte{flag}, parts)
			if got := roundPayload(t, genesis, invs...); !bytes.Equal(got, want) {
				t.Fatalf("%d invocations (genesis %v): payload differs from the batch container", len(invs), genesis)
			}
		}
	}
	if raceEnabled {
		return
	}
	one := []core.Invocation{put(8)}
	if got := testing.AllocsPerRun(100, func() { _, _ = encodeRoundPayload(false, one) }); got != 1 {
		t.Fatalf("a round of one encodes with %.0f allocations, want 1", got)
	}
}

// Decoding an ACCEPT on a ref this node holds copies nothing: the node id
// and the type name are interned, the ref is the record's (knownRef), the
// payload is read in place and the frame's reader is on the stack. Only
// an ACCEPT on a ref without a record copies its key. An ACCEPT reply, a
// bare ack, allocates nothing.
func TestControlFrameDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	n := startNode(t, validConfig(rpc.NewMemNetwork(), membership.NewDirectory(time.Hour)))
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/counter"}
	if _, err := n.createCopy(pinned(t, n, ref), core.Invocation{Ref: ref}); err != nil {
		t.Fatal(err)
	}
	frame := func(ref core.Ref) []byte {
		return acceptMsg{ID: totalorder.MsgID{Origin: "n1", Seq: 7}, Ref: ref, Fence: 11,
			Prev: position{Epoch: 2, Seq: 3}, At: position{Epoch: 2, Seq: 4}, Payload: []byte("payload")}.encode()
	}
	known := n.knownRef
	for _, tc := range []struct {
		name string
		ref  core.Ref
		want float64
	}{
		{"resident", ref, 0},
		{"unknown", core.Ref{Type: ref.Type, Key: "alloc/elsewhere"}, 1}, // its key
	} {
		body := frame(tc.ref)
		if m, err := decodeAccept(body, known); err != nil || m.Ref != tc.ref { // interns the names
			t.Fatalf("%s: decoded ref %s (err %v), want %s", tc.name, m.Ref, err, tc.ref)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = decodeAccept(body, known) }); got != tc.want {
			t.Fatalf("decoding an ACCEPT on the %s ref allocates %.0f, want %.0f", tc.name, got, tc.want)
		}
	}
	reply := acceptAck{}.encode()
	if got := testing.AllocsPerRun(100, func() { _, _ = decodeAcceptAck(reply) }); got != 0 {
		t.Fatalf("decoding an ACCEPT reply allocates %.0f", got)
	}
}

// A key's length prefix may be any uvarint encoding of its length, not
// only the shortest. The record table compares keys by their bytes once
// the prefix is read, so an invocation or an ACCEPT whose key length is
// padded to two bytes still lands on the ref's one record.
func TestNonMinimalKeyLengthFindsOneRecord(t *testing.T) {
	n := startNode(t, validConfig(rpc.NewMemNetwork(), membership.NewDirectory(time.Hour)))
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "padded"}
	add := core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)}}
	canonical, err := core.EncodeInvocation(add)
	if err != nil {
		t.Fatal(err)
	}
	// The key's length byte follows the three-byte preamble and the type.
	at := 3 + 1 + len(ref.Type)
	if int(canonical[at]) != len(ref.Key) {
		t.Fatalf("byte %d is %d, not the key's length", at, canonical[at])
	}
	padded := append(append(bytes.Clone(canonical[:at]), canonical[at]|0x80, 0), canonical[at+1:]...)
	ctx := context.Background()
	for i, body := range [][]byte{canonical, padded, padded} {
		out, err := n.handleInvoke(ctx, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := core.DecodeResponse(out)
		if err != nil || resp.Err != "" || len(resp.Results) != 1 || resp.Results[0] != int64(i+1) {
			t.Fatalf("call %d answered %v, %q (err %v), want %d", i+1, resp.Results, resp.Err, err, i+1)
		}
	}
	if s := n.DebugTableSizes(); s.Records != 1 || s.Resident != 1 {
		t.Fatalf("%d records, %d copies after three calls on one ref, want 1 and 1", s.Records, s.Resident)
	}
	accept := acceptMsg{ID: totalorder.MsgID{Origin: "n2", Seq: 1}, Ref: ref, At: position{Seq: 1}}.encode()
	// The ACCEPT's key length follows its tag, the origin and the seq.
	at = 1 + 1 + len("n2") + 1 + 1 + len(ref.Type)
	if int(accept[at]) != len(ref.Key) {
		t.Fatalf("byte %d is %d, not the key's length", at, accept[at])
	}
	accept = append(append(bytes.Clone(accept[:at]), accept[at]|0x80, 0), accept[at+1:]...)
	msg, err := decodeAccept(accept, n.knownRef)
	if err != nil || msg.Ref != ref {
		t.Fatalf("padded ACCEPT decodes to %s (err %v), want %s", msg.Ref, err, ref)
	}
	if e := pinned(t, n, ref); unsafe.StringData(msg.Ref.Key) != unsafe.StringData(e.ref.Key) {
		t.Fatal("a padded ACCEPT on a held ref copied the key instead of taking the record's")
	}
}

// acceptApplyAllocBudget is what a warm member's handleAccept of a round
// of one AddAndGet on an AtomicLong allocates with the WAL off: 2 in each
// of 20 samples of 200 rounds (2026-10-20, 2-vCPU box, go1.24), the
// argument list and the method's result list (their small integers box
// without allocating). The ACCEPT's ref is the record's (knownRef), the
// payload is read in place, its one invocation shares that ref and
// decodes into an array on the handler's stack, the record's Ctl is not
// boxed per call and the reply goes out in a pooled buffer. With a fresh
// key per ACCEPT it cost 3; before that, the member also split the
// payload into a slice of parts, decoded an invocation slice and its key,
// copied the payload, boxed the Ctl, moved its lane record to the heap,
// and sized a reply frame of its own, whose recycling took a pool box: 11.
const acceptApplyAllocBudget = 2

// TestAcceptApplyAllocBudget pins the member's side of a round: what one
// ACCEPT costs from its decode to its reply, the rpc server's recycling of
// that reply included.
func TestAcceptApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(rpc.NewMemNetwork(), dir))
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/member"}
	const runs = 200
	bodies := make([][]byte, runs+2) // seq 1 is the genesis round, AllocsPerRun runs once more
	for i := range bodies {
		seq := uint64(i + 1)
		bodies[i] = acceptBody(t, dir, "n9", seq, seq == 1, core.Invocation{Ref: ref, Method: "AddAndGet",
			Args: []any{int64(1)}, Persist: true, ClientID: 5, Seq: seq})
	}
	ctx := context.Background()
	next := 0
	apply := func() {
		out, err := n.handleAccept(ctx, bodies[next])
		if err != nil {
			t.Fatalf("round %d: %v", next+1, err)
		}
		rpc.PutBuffer(out) // as the rpc server does once the reply is written
		next++
	}
	apply() // genesis: the copy, its record, the dedup window
	got := testing.AllocsPerRun(runs, apply)
	if got > acceptApplyAllocBudget {
		t.Fatalf("a member's ACCEPT of a round of one allocates %.0f, budget %d", got, acceptApplyAllocBudget)
	}
	t.Logf("a member's ACCEPT of a round of one allocates %.0f (budget %d)", got, acceptApplyAllocBudget)
}

// rebalancerScanAllocBudget is what one coordinator scan over 1 000
// lukewarm objects on a one-node cluster may allocate: 1 013-1 014 in five
// of five runs on the 2-vCPU reference box (go1.24, 2026-10-19), nearly all
// of it the load snapshot's per-object entries, plus about 10 %. When each
// object was placed through View.Place, which builds a ring per call, the
// same scan allocated 265 022.
const rebalancerScanAllocBudget = 1100

// A rebalancer scan places every object it has a rate for, through one
// placement function, not a ring per object.
func TestRebalancerScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	cfg := validConfig(rpc.NewMemNetwork(), membership.NewDirectory(time.Hour))
	cfg.Telemetry = telemetry.New()
	n := startNode(t, cfg)
	const refs = 1000
	n.objTrack = telemetry.NewObjectTracker(refs)
	for i := 0; i < refs; i++ {
		k := telemetry.ObjectKey{Type: objects.TypeAtomicLong, Key: "scan/" + strconv.Itoa(i)}
		n.objTrack.ObserveInvoke(k, false, time.Microsecond, 16)
	}
	// No object is hot enough to move: the scan measures, places, decides
	// nothing.
	rb := newRebalancer(n, core.RebalancePolicy{Enabled: true, HotRate: 1e12})
	got := testing.AllocsPerRun(3, rb.scan)
	if got > rebalancerScanAllocBudget {
		t.Fatalf("a scan over %d objects allocates %.0f, budget %d", refs, got, rebalancerScanAllocBudget)
	}
	if scans := n.rebalScans.Load(); scans < 3 {
		t.Fatalf("%d scans ran", scans)
	}
	t.Logf("a scan over %d objects allocates %.0f (budget %d)", refs, got, rebalancerScanAllocBudget)
}

// bytesPerRun is what testing.AllocsPerRun is for allocations, for bytes:
// the heap bytes f allocates per call, on average over runs after one
// warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// acceptReplyBytes bounds the bytes one warm ACCEPT allocates beyond its
// frame, member and coordinator together. A reply the coordinator drops
// does not return to the rpc payload pool, where the member drew it, so
// the next frame read draws a fresh 4 KiB buffer (rpc's minBuffer): 4 213
// bytes per ACCEPT before peerCall recycled its replies, 69-119 after
// (2026-10-20, 2-vCPU box, go1.24).
const acceptReplyBytes = 1024

// fetchAllocBudget is what one warm pull of a fresh AtomicLong from a
// member allocates, both ends together: 11 in 20 of 20 runs (same box).
// Pinned at its reading: before, the member encoded its reply into an
// exact-size buffer that the rpc server then pooled, and the puller
// dropped the reply: 12. (That pooled reply refilled the pool, so the
// dropped one cost no fresh 4 KiB buffer, as the ACCEPT's did.)
const fetchAllocBudget = 11

// A coordinator's ACCEPT and a pull's fetch hand their replies back to
// the pool once decoded (peerCall), and the member draws them from it, so
// a warm call allocates no frame buffer at either end.
func TestPeerReplyRecycledAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	n1, n2, dir, ref := startPair(t, objects.TypeAtomicLong, 0, nil)
	ctx := context.Background()
	const runs = 200

	// Both nodes hold a fresh copy, so every pull fetches the member's
	// snapshot and keeps its own copy.
	e := pinned(t, n1, ref)
	for _, n := range []*Node{n1, n2} {
		if _, err := n.createCopy(pinned(t, n, ref), core.Invocation{Ref: ref, Persist: true}); err != nil {
			t.Fatal(err)
		}
	}
	group, _ := n1.replicaGroup(ref, true)
	pull := func() {
		if _, _, err := n1.pullObject(ctx, e, group); err != nil {
			t.Fatalf("pull: %v", err)
		}
	}
	if got := testing.AllocsPerRun(runs, pull); got > fetchAllocBudget {
		t.Errorf("a warm fetch allocates %.0f, budget %d", got, fetchAllocBudget)
	} else {
		t.Logf("a warm fetch allocates %.0f (budget %d)", got, fetchAllocBudget)
	}

	seq := uint64(0)
	body := func(seq uint64) []byte {
		return acceptBody(t, dir, "n1", seq, false, core.Invocation{Ref: ref, Method: "AddAndGet",
			Args: []any{int64(1)}, Persist: true, ClientID: 5, Seq: seq})
	}
	accept := func() {
		seq++
		id := totalorder.MsgID{Origin: "n1", Seq: seq}
		if err := n1.acceptAt(ctx, id, "n2", body(seq)); err != nil {
			t.Fatalf("round %d: %v", seq, err)
		}
	}
	accept() // connections
	// The body is built inside the call; what building it costs is
	// subtracted.
	build := bytesPerRun(runs, func() { _ = body(seq + 1) })
	if got := bytesPerRun(runs, accept) - build; got > acceptReplyBytes {
		t.Errorf("a warm ACCEPT allocates %.0f bytes beyond its frame, budget %d: its reply is not recycled", got, acceptReplyBytes)
	} else {
		t.Logf("a warm ACCEPT allocates %.0f bytes beyond its frame (budget %d)", got, acceptReplyBytes)
	}
}

// readCounter is a replicated object whose read Peek counts the times it
// ran and whose write Bump counts itself; Init's first value, when given,
// is its starting count.
type readCounter struct{ peeks, bumps int64 }

const typeReadCounter = "ReadCounter"

func (c *readCounter) Call(_ core.Ctl, method string, _ []any) ([]any, error) {
	switch method {
	case "Peek":
		c.peeks++
		return []any{c.bumps}, nil
	case "Bump":
		c.bumps++
	}
	return nil, nil
}

// A member discards a round's read outcomes, so it does not run the reads
// (applyLocked): after an rf=2 read round the primary's copy ran the read
// once and the member's not at all, while both apply the writes. A
// genesis read round still creates the member's copy from its Init list.
func TestMemberSkipsReads(t *testing.T) {
	core.RegisterReadOnlyMethods(typeReadCounter, "Peek")
	reg := objects.BuiltinRegistry()
	reg.MustRegister(core.TypeInfo{Name: typeReadCounter, New: func(init []any) (core.Object, error) {
		c := &readCounter{}
		if len(init) > 0 {
			c.bumps = init[0].(int64)
		}
		return c, nil
	}})
	cfg := validConfig(rpc.NewMemNetwork(), membership.NewDirectory(time.Hour))
	cfg.RF, cfg.Registry = 2, reg
	n1 := startNode(t, cfg)
	cfg.ID, cfg.Addr = "n2", "n2"
	n2 := startNode(t, cfg)
	ref := refLedBy(t, n1, typeReadCounter)
	ctx := context.Background()
	peek := core.Invocation{Ref: ref, Method: "Peek", Init: []any{int64(40)}, Persist: true, ReadOnly: true}
	counts := func(n *Node) readCounter {
		e := pinned(t, n, ref)
		e.mu.Lock()
		defer e.mu.Unlock()
		c, _ := e.obj.(*readCounter)
		if c == nil {
			t.Fatalf("%s holds no copy of %s", n.cfg.ID, ref)
		}
		return *c
	}
	for i, want := range []int64{40, 40, 41} {
		if i == 2 {
			bump := core.Invocation{Ref: ref, Method: "Bump", Persist: true, ClientID: 9, Seq: 1}
			if _, err := n1.invoke(ctx, bump); err != nil {
				t.Fatal(err)
			}
		}
		res, err := n1.invoke(ctx, peek) // the first is the genesis round
		if err != nil || len(res) != 1 || res[0] != want {
			t.Fatalf("read %d: %v (err %v), want %d", i+1, res, err, want)
		}
	}
	if p, m := counts(n1), counts(n2); p.peeks != 3 || m.peeks != 0 || p.bumps != 41 || m.bumps != 41 {
		t.Fatalf("primary ran %d reads and holds %d, member ran %d and holds %d; want 3 and 41, 0 and 41",
			p.peeks, p.bumps, m.peeks, m.bumps)
	}
	e1, s1, _ := n1.DebugPosition(ref)
	e2, s2, _ := n2.DebugPosition(ref)
	if s1 != 4 || e1 != e2 || s1 != s2 {
		t.Fatalf("positions (%d, %d) at the primary and (%d, %d) at the member, want both at the fourth round",
			e1, s1, e2, s2)
	}
}

// positionPullBytes bounds what a pull allocates, both ends together, when
// the puller's copy already stands at the member's position: the member
// answers with its position alone, no snapshot and no dedup window. While
// every fetch reply shipped the copy, a warm pull of this AtomicLong after
// 200 stamped writes from one client allocated about 9.8 KB, 57 % of it
// the window's clone and decode.
const positionPullBytes = 1024

// A pull finds a member at its own position and takes no copy.
func TestPositionOnlyPullAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	n1, n2, _, ref := startPair(t, objects.TypeAtomicLong, 0, nil)
	ctx := context.Background()
	for seq := uint64(1); seq <= 200; seq++ {
		if _, err := n1.invoke(ctx, core.Invocation{Ref: ref, Method: "AddAndGet", Args: []any{int64(1)},
			Persist: true, ClientID: 11, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	e := pinned(t, n1, ref)
	group, _ := n1.replicaGroup(ref, true)
	installs := n1.transfers.Load()
	pull := func() {
		if installed, found, err := n1.pullObject(ctx, e, group); installed || !found || err != nil {
			t.Fatalf("pull at the member's position: installed %v, found %v, err %v", installed, found, err)
		}
	}
	got := bytesPerRun(200, pull)
	if got > positionPullBytes {
		t.Fatalf("a pull at the member's position allocates %.0f bytes, budget %d", got, positionPullBytes)
	}
	if n1.transfers.Load() != installs || n2.transfers.Load() != 0 {
		t.Fatal("a pull at the member's position moved a copy")
	}
	t.Logf("a pull at the member's position allocates %.0f bytes (budget %d)", got, positionPullBytes)
}
