package totalorder

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

func TestBatchRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{[]byte("one")},
		{[]byte("a"), []byte(""), []byte("ccc")},
		{bytes.Repeat([]byte{0xab}, 300), []byte("tail")},
	}
	for i, parts := range cases {
		enc := AppendBatch(nil, parts)
		var got [][]byte
		err := WalkBatch(enc, func(i, count int, part []byte) error {
			if i != len(got) || count != len(parts) {
				t.Fatalf("case %d: part %d of %d visited as %d of %d", i, len(got), len(parts), i, count)
			}
			got = append(got, part)
			return nil
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(parts) {
			t.Fatalf("case %d: %d parts, want %d", i, len(got), len(parts))
		}
		for j := range parts {
			if !bytes.Equal(got[j], parts[j]) {
				t.Fatalf("case %d part %d: %q != %q", i, j, got[j], parts[j])
			}
		}
	}
}

func TestBatchRejectsCorruptContainers(t *testing.T) {
	bad := [][]byte{
		nil,                      // no header
		{0x00},                   // zero parts
		{0x05, 0x01, 'x'},        // count beyond payload
		{0x01, 0x09, 'x'},        // part length beyond payload
		{0xff, 0xff, 0xff, 0xff}, // unterminated uvarint-ish garbage
		append(AppendBatch(nil, [][]byte{{'a'}}), 'z'), // trailing bytes
	}
	for i, data := range bad {
		if err := WalkBatch(data, func(int, int, []byte) error { return nil }); err == nil {
			t.Fatalf("case %d: corrupt container %v accepted", i, data)
		}
	}
}

// A batch payload is one protocol message: a duplicated FINAL (the chaos
// engine duplicates frames, clients retry) must not deliver the batch — and
// with it every sub-operation — a second time.
func TestBatchDuplicateFinalDeliversOnce(t *testing.T) {
	tr := newMemTransport()
	recs := buildCluster(t, tr, "a", "b")
	id := MsgID{Origin: "a", Seq: 1}
	payload := AppendBatch(nil, [][]byte{[]byte("op1"), []byte("op2"), []byte("op3")})
	if err := Multicast(context.Background(), tr, []string{"a", "b"}, id, payload); err != nil {
		t.Fatal(err)
	}
	// Replay the FINAL (and a late PROPOSE retry) at both members.
	for _, name := range []string{"a", "b"} {
		n := tr.nodes[name]
		n.HandlePropose(id, payload)
		n.HandleFinal(id, 1)
		n.HandleFinal(id, 99)
	}
	for name, rec := range recs {
		if got := rec.snapshot(); len(got) != 1 || got[0] != id {
			t.Fatalf("node %s delivered %v, want exactly one %v", name, got, id)
		}
	}
}

// Aborting a batch drops all of its sub-operations at once and unblocks
// later rounds, exactly like a single-op abort: the batch is one MsgID.
func TestBatchAbortDropsWholeBatchAndUnblocks(t *testing.T) {
	rec := &recorder{}
	n := NewNode("a", rec.deliver)
	stuck := MsgID{Origin: "x", Seq: 1}
	n.HandlePropose(stuck, AppendBatch(nil, [][]byte{[]byte("w1"), []byte("w2")}))
	later := MsgID{Origin: "y", Seq: 1}
	ts := n.HandlePropose(later, AppendBatch(nil, [][]byte{[]byte("w3")}))
	n.HandleFinal(later, ts)
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("delivered %v behind a pending batch", got)
	}
	n.Drop(stuck)
	if got := rec.snapshot(); len(got) != 1 || got[0] != later {
		t.Fatalf("delivered %v after abort, want %v", rec.snapshot(), later)
	}
	if ok := n.WaitDelivered(stuck, 10*time.Millisecond); ok {
		t.Fatal("aborted batch reported applied")
	}
}

// A batch whose coordinator dies between PROPOSE and FINAL is garbage
// collected by the pending TTL like any orphan, and a FINAL arriving after
// the sweep is ignored rather than delivering a half-forgotten batch.
func TestBatchOrphanExpiresUnderTTL(t *testing.T) {
	rec := &recorder{}
	n := NewNode("a", rec.deliver)
	n.SetPendingTTL(20 * time.Millisecond)
	orphan := MsgID{Origin: "dead", Seq: 1}
	n.HandlePropose(orphan, AppendBatch(nil, [][]byte{[]byte("w1"), []byte("w2")}))
	time.Sleep(40 * time.Millisecond)
	// The sweep runs on the next delivery attempt; drive one with an
	// unrelated later round.
	live := MsgID{Origin: "alive", Seq: 1}
	ts := n.HandlePropose(live, AppendBatch(nil, [][]byte{[]byte("w3")}))
	n.HandleFinal(live, ts)
	if got := rec.snapshot(); len(got) != 1 || got[0] != live {
		t.Fatalf("delivered %v, want only %v past the expired orphan", got, live)
	}
	// The late FINAL for the swept batch must not resurrect it.
	n.HandleFinal(orphan, 1)
	if got := rec.snapshot(); len(got) != 1 {
		t.Fatalf("expired orphan batch was delivered: %v", got)
	}
	if n.PendingCount() != 0 {
		t.Fatalf("pending = %d, want 0", n.PendingCount())
	}
}

// Pipelined rounds from one origin: several outstanding batches multicast
// concurrently must deliver in the same order at every member.
func TestBatchPipelinedRoundsKeepOrder(t *testing.T) {
	tr := newMemTransport()
	tr.maxDelay = 2 * time.Millisecond
	recs := buildCluster(t, tr, "a", "b", "c")
	group := []string{"a", "b", "c"}
	const rounds = 8
	var wg sync.WaitGroup
	for i := 1; i <= rounds; i++ {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			id := MsgID{Origin: "a", Seq: seq}
			payload := AppendBatch(nil, [][]byte{[]byte("w"), []byte("w")})
			if err := Multicast(context.Background(), tr, group, id, payload); err != nil {
				t.Errorf("round %d: %v", seq, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	ref := recs["a"].snapshot()
	if len(ref) != rounds {
		t.Fatalf("node a delivered %d rounds, want %d", len(ref), rounds)
	}
	for name, rec := range recs {
		got := rec.snapshot()
		if len(got) != len(ref) {
			t.Fatalf("node %s delivered %d rounds, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("node %s order %v differs from node a %v", name, got, ref)
			}
		}
	}
}
