package server

import (
	"bytes"
	"context"
	"strconv"
	"testing"
	"time"

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

// Decoding an ACCEPT copies its key and nothing else: the node id and
// type name are interned, the payload is read in place, the frame's
// reader is on the stack. An ACCEPT reply, all integers, allocates
// nothing.
func TestControlFrameDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	accept := acceptMsg{ID: totalorder.MsgID{Origin: "n1", Seq: 7},
		Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/counter"},
		At:  position{Fence: 11, Seq: 4}, Payload: []byte("payload")}.encode()
	reply := finalResp{Version: 3, Replays: 1}.encode()
	if _, err := decodeAccept(accept); err != nil { // interns the names
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = decodeAccept(accept) }); got != 1 {
		t.Fatalf("decoding an ACCEPT allocates %.0f, want 1 (the key)", got)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = decodeFinalResp(reply) }); got != 0 {
		t.Fatalf("decoding an ACCEPT reply allocates %.0f", got)
	}
}

// acceptApplyAllocBudget is what a warm member's handleAccept of a round
// of one AddAndGet on an AtomicLong allocates with the WAL off, plus about
// 10 %: 3 in each of 20 samples of 200 rounds (2026-10-20, 2-vCPU box,
// go1.24): the ACCEPT's key, the argument list and the method's result
// list (their small integers box without allocating). The payload is read
// in place, its one invocation shares the ACCEPT's ref and decodes into an
// array on the handler's stack, the record's Ctl is not boxed per call and
// the reply goes out in a pooled buffer. Before, the member also split the
// payload into a slice of parts, decoded an invocation slice and its key,
// copied the payload, boxed the Ctl, moved its lane record to the heap,
// and sized a reply frame of its own, whose recycling took a pool box: 11.
const acceptApplyAllocBudget = 4

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
