package statefun

import (
	"testing"

	"crucial/internal/core"
)

// newTestMailbox builds a mailbox with the given capacity.
func newTestMailbox(t *testing.T, capacity int64) *Mailbox {
	t.Helper()
	obj, err := NewMailbox([]any{capacity})
	if err != nil {
		t.Fatal(err)
	}
	return obj.(*Mailbox)
}

// env builds a test envelope.
func env(from string, seq uint64, name string) Envelope {
	return Envelope{To: Address{FnType: "fn", ID: "a"}, From: from, Seq: seq, Name: name}
}

func TestMailboxPushDedupWindow(t *testing.T) {
	m := newTestMailbox(t, 16)
	if r := m.push(env("s1", 1, "a")); r.Status != PushOK || r.QueueLen != 1 {
		t.Fatalf("first push: %+v", r)
	}
	// Same sequence again (a transport- or app-level redelivery).
	if r := m.push(env("s1", 1, "a")); r.Status != PushDup {
		t.Fatalf("dup push accepted: %+v", r)
	}
	// Lower sequence after a higher one.
	if r := m.push(env("s1", 3, "c")); r.Status != PushOK {
		t.Fatalf("seq 3: %+v", r)
	}
	if r := m.push(env("s1", 2, "b")); r.Status != PushDup {
		t.Fatalf("stale seq 2 accepted: %+v", r)
	}
	// Independent senders have independent windows.
	if r := m.push(env("s2", 1, "x")); r.Status != PushOK {
		t.Fatalf("other sender: %+v", r)
	}
	st := m.fetch()
	if st.QueueLen != 3 {
		t.Fatalf("queue len = %d, want 3", st.QueueLen)
	}
}

func TestMailboxPushOverflow(t *testing.T) {
	m := newTestMailbox(t, 2)
	m.push(env("s", 1, "a"))
	m.push(env("s", 2, "b"))
	r := m.push(env("s", 3, "c"))
	if r.Status != PushFull || r.QueueLen != 2 {
		t.Fatalf("overflow push: %+v", r)
	}
	// A bounced push must not advance the dedup window: the retry (same
	// seq) must be accepted once room exists.
	cr := m.commit(CommitReq{EnqSeq: m.fetch().EnqSeq, From: "fn/a"})
	if !cr.Applied {
		t.Fatal("commit did not apply")
	}
	if r := m.push(env("s", 3, "c")); r.Status != PushOK {
		t.Fatalf("retry after drain: %+v", r)
	}
}

func TestMailboxCommitIdempotence(t *testing.T) {
	m := newTestMailbox(t, 16)
	m.push(env("s", 1, "a"))
	task := m.fetch()
	if !task.Has || task.Env.Name != "a" {
		t.Fatalf("fetch: %+v", task)
	}
	req := CommitReq{
		EnqSeq:   task.EnqSeq,
		From:     "fn/a",
		State:    []byte("state-1"),
		SetState: true,
		Sends:    []Envelope{{To: Address{FnType: "fn", ID: "b"}, Name: "fwd"}},
	}
	first := m.commit(req)
	if !first.Applied || len(first.Pending) != 1 {
		t.Fatalf("first commit: %+v", first)
	}
	if first.Pending[0].Env.From != "fn/a" || first.Pending[0].Env.Seq != 1 {
		t.Fatalf("outbox stamping: %+v", first.Pending[0].Env)
	}
	// The redelivered run commits again with the same EnqSeq: a no-op
	// that must not double-append the sends nor touch state.
	second := m.commit(req)
	if second.Applied {
		t.Fatal("duplicate commit applied")
	}
	if len(second.Pending) != 1 {
		t.Fatalf("outbox grew on duplicate commit: %d entries", len(second.Pending))
	}
	if m.processed != 1 {
		t.Fatalf("processed = %d, want 1", m.processed)
	}
}

func TestMailboxAckOut(t *testing.T) {
	m := newTestMailbox(t, 16)
	m.push(env("s", 1, "a"))
	task := m.fetch()
	res := m.commit(CommitReq{EnqSeq: task.EnqSeq, From: "fn/a", Sends: []Envelope{
		{To: Address{FnType: "fn", ID: "b"}},
		{To: Address{FnType: "fn", ID: "c"}},
		{To: Address{FnType: "fn", ID: "d"}},
	}})
	if len(res.Pending) != 3 {
		t.Fatalf("pending = %d", len(res.Pending))
	}
	m.ackOut(2)
	if got := m.fetch().OutLen; got != 1 {
		t.Fatalf("outbox after ack(2) = %d, want 1", got)
	}
	m.ackOut(3)
	if got := m.fetch().OutLen; got != 0 {
		t.Fatalf("outbox after ack(3) = %d, want 0", got)
	}
	// Cumulative acks are idempotent.
	m.ackOut(3)
	if got := m.fetch().OutLen; got != 0 {
		t.Fatalf("outbox after re-ack = %d, want 0", got)
	}
}

func TestMailboxSnapshotRoundTrip(t *testing.T) {
	m := newTestMailbox(t, 8)
	m.push(env("s", 1, "a"))
	m.push(env("s", 2, "b"))
	task := m.fetch()
	m.commit(CommitReq{EnqSeq: task.EnqSeq, From: "fn/a", State: []byte("st"), SetState: true,
		Sends: []Envelope{{To: Address{FnType: "fn", ID: "b"}, Name: "fwd"}}})
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewMailbox(nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := obj.(*Mailbox)
	if err := m2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if m2.capacity != 8 || m2.processed != 1 || len(m2.queue) != 1 || len(m2.outbox) != 1 {
		t.Fatalf("restored mailbox: %+v", m2)
	}
	// The dedup window must survive: replaying seq 2 after recovery is a dup.
	if r := m2.push(env("s", 2, "b")); r.Status != PushDup {
		t.Fatalf("dedup window lost in snapshot: %+v", r)
	}
	// And the enqueue counter must not reissue sequence numbers.
	if r := m2.push(env("s", 3, "c")); r.Status != PushOK {
		t.Fatalf("push after restore: %+v", r)
	}
	next := m2.fetch()
	if next.EnqSeq != 2 {
		t.Fatalf("head enq seq after restore = %d, want 2", next.EnqSeq)
	}
}

// callMailbox calls a mailbox method and decodes its tag-encoded result.
func callMailbox[T any](obj core.Object, method string, decode func([]byte) (T, error), args ...any) (T, error) {
	res, err := obj.Call(nil, method, args)
	return decodeResult(res, err, decode)
}

func TestMailboxCallDispatch(t *testing.T) {
	obj, err := NewMailbox(nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := callMailbox(obj, "Push", decodePushResult, env("s", 1, "a").encode())
	if err != nil || pr.Status != PushOK {
		t.Fatalf("push via Call: %+v (err %v)", pr, err)
	}
	if _, err := obj.Call(nil, "Push", []any{env("s", 2, "b")}); err == nil {
		t.Fatal("Push accepted an argument that is not an encoded envelope")
	}
	if _, err := obj.Call(nil, "Bogus", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	st, err := callMailbox(obj, "Status", decodeStatus)
	if err != nil || st.QueueLen != 1 {
		t.Fatalf("status via Call: %+v (err %v)", st, err)
	}
}

// TestAddressDirEntryRoundTrip pins the directory-entry encoding.
func TestAddressDirEntryRoundTrip(t *testing.T) {
	a := Address{FnType: "order", ID: "o/42"}
	back, ok := AddressFromDirEntry(a.DirEntry())
	if !ok || back != a {
		t.Fatalf("round trip: %v %v", back, ok)
	}
	if _, ok := AddressFromDirEntry("noslash"); ok {
		t.Fatal("parsed entry without slash")
	}
}

// TestReadOnlyClassification pins the lease-cacheable method set: Fetch,
// Status and Outbox must be read-only (reads of them ride the lease cache),
// and the mutating methods must not be.
func TestReadOnlyClassification(t *testing.T) {
	RegisterTypes(core.NewRegistry())
	for _, m := range []string{"Fetch", "Status", "Outbox"} {
		if !core.IsReadOnlyMethod(TypeMailbox, m) {
			t.Errorf("%s not classified read-only", m)
		}
	}
	for _, m := range []string{"Push", "Commit", "AckOut"} {
		if core.IsReadOnlyMethod(TypeMailbox, m) {
			t.Errorf("%s wrongly classified read-only", m)
		}
	}
}
