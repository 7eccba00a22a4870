package statefun

import (
	"context"
	"errors"
	"testing"

	"crucial/internal/core"
	"crucial/internal/objects"
)

// fakeInvoker backs mailboxes, the dispatch directory, the doorbell and
// reply futures in memory, so the delivery paths of Proc and Sender can
// be exercised without a cluster — including the crash windows a real
// cluster only hits under fault injection.
type fakeInvoker struct {
	mailboxes map[string]*Mailbox
	dir       map[string]bool
	futures   map[string][]byte
	doorbell  *Doorbell
	dirErrs   int // the next N directory Puts fail (injected fault)
	dirPuts   int
	calls     map[string]int // invocations per method
}

func newFakeInvoker() *fakeInvoker {
	return &fakeInvoker{
		mailboxes: make(map[string]*Mailbox),
		dir:       make(map[string]bool),
		futures:   make(map[string][]byte),
		doorbell:  &Doorbell{nonce: 1},
		calls:     make(map[string]int),
	}
}

// offered reports whether addr was rung on the doorbell.
func (f *fakeInvoker) offered(addr Address) bool {
	for _, a := range f.doorbell.wake(f.doorbell.nonce, 0).Ready {
		if a == addr {
			return true
		}
	}
	return false
}

// nopCtl is the monitor of a lone in-memory object: nothing ever waits.
type nopCtl struct{}

func (nopCtl) Wait(cond func() bool) error {
	if !cond() {
		return errors.New("nopCtl: would block")
	}
	return nil
}
func (nopCtl) Broadcast()               {}
func (nopCtl) Context() context.Context { return context.Background() }

func (f *fakeInvoker) mailbox(t *testing.T, key string, capacity int64) *Mailbox {
	t.Helper()
	m := f.mailboxes[key]
	if m == nil {
		m = newTestMailbox(t, capacity)
		f.mailboxes[key] = m
	}
	return m
}

func (f *fakeInvoker) InvokeObject(_ context.Context, inv core.Invocation) ([]any, error) {
	f.calls[inv.Method]++
	switch inv.Ref.Type {
	case TypeDoorbell:
		return f.doorbell.Call(nopCtl{}, inv.Method, inv.Args)
	case TypeMailbox:
		capacity := int64(DefaultMailboxCap)
		if len(inv.Init) > 0 {
			if c, ok := inv.Init[0].(int64); ok && c > 0 {
				capacity = c
			}
		}
		m := f.mailboxes[inv.Ref.Key]
		if m == nil {
			obj, err := NewMailbox([]any{capacity})
			if err != nil {
				return nil, err
			}
			m = obj.(*Mailbox)
			f.mailboxes[inv.Ref.Key] = m
		}
		return m.Call(nil, inv.Method, inv.Args)
	case objects.TypeMap:
		switch inv.Method {
		case "Put":
			f.dirPuts++
			if f.dirErrs > 0 {
				f.dirErrs--
				return nil, errors.New("injected directory failure")
			}
			f.dir[inv.Args[0].(string)] = true
			return []any{any(nil)}, nil
		case "Remove":
			delete(f.dir, inv.Args[0].(string))
			return []any{any(nil)}, nil
		}
	case objects.TypeFuture:
		if inv.Method == "Set" {
			if _, done := f.futures[inv.Ref.Key]; done {
				// Mimic the wire: the sentinel crosses as text and is
				// re-materialized by DecodeError.
				return nil, core.DecodeError(core.EncodeError(objects.ErrFutureAlreadySet))
			}
			f.futures[inv.Ref.Key] = inv.Args[0].([]byte)
			return nil, nil
		}
	}
	return nil, errors.New("fakeInvoker: unsupported " + inv.Ref.Type + "." + inv.Method)
}

// commitWithSends pushes one message into src's mailbox and commits it
// with the given sends, returning the pending outbox entries.
func commitWithSends(t *testing.T, f *fakeInvoker, src Address, sends []Envelope) []OutEntry {
	t.Helper()
	m := f.mailbox(t, src.Key(), DefaultMailboxCap)
	if r := m.push(Envelope{To: src, From: "test", Seq: uint64(m.processed) + 1, Name: "go"}); r.Status != PushOK {
		t.Fatalf("seed push: %+v", r)
	}
	res := m.commit(CommitReq{EnqSeq: m.fetch().EnqSeq, From: src.Key(), Sends: sends})
	if !res.Applied {
		t.Fatal("seed commit did not apply")
	}
	return res.Pending
}

// TestDeliverRegistersOnPushDup pins the crash-window fix: a prior
// delivery attempt pushed the message (queue 0 → 1) but died before
// activating the destination. The retry sees PushDup and must still
// register the destination and ring the doorbell for it — otherwise the
// durable message is never dispatched.
func TestDeliverRegistersOnPushDup(t *testing.T) {
	f := newFakeInvoker()
	src := Address{FnType: "src", ID: "1"}
	dst := Address{FnType: "dst", ID: "1"}
	pending := commitWithSends(t, f, src, []Envelope{{To: dst, Name: "fwd"}})
	if len(pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(pending))
	}

	// The crashed first attempt: push applied, registration did not.
	if r, err := PushEnvelope(context.Background(), f, pending[0].Env, 0); err != nil || r.Status != PushOK {
		t.Fatalf("simulated first push: %+v %v", r, err)
	}
	if len(f.dir) != 0 {
		t.Fatalf("directory not empty before retry: %v", f.dir)
	}

	p := NewProc(f, NewHandlerSet(), ProcOptions{})
	var report RunReport
	if err := p.deliver(context.Background(), src, pending, &report); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if !f.dir[dst.DirEntry()] {
		t.Fatalf("destination not registered on PushDup retry: %v", f.dir)
	}
	if !f.offered(dst) {
		t.Fatal("destination not offered on the doorbell on PushDup retry")
	}
	if got := f.mailbox(t, src.Key(), 0).fetch().OutLen; got != 0 {
		t.Fatalf("outbox not acked after dup delivery: %d entries left", got)
	}
	// And the message itself was not double-enqueued.
	if got := f.mailbox(t, dst.Key(), 0).fetch().QueueLen; got != 1 {
		t.Fatalf("destination queue = %d, want 1", got)
	}
}

// TestDeliverSkipsOnlyFullDestination pins the head-of-line fix: a full
// destination suspends its own entries but must not block delivery to
// other destinations (only the contiguous delivered prefix is acked).
func TestDeliverSkipsOnlyFullDestination(t *testing.T) {
	f := newFakeInvoker()
	src := Address{FnType: "src", ID: "1"}
	full := Address{FnType: "busy", ID: "b"}
	open := Address{FnType: "calm", ID: "c"}
	// Fill the busy destination to capacity before delivery starts.
	fm := f.mailbox(t, full.Key(), 2)
	for seq := uint64(1); seq <= 2; seq++ {
		if r := fm.push(Envelope{To: full, From: "other", Seq: seq}); r.Status != PushOK {
			t.Fatalf("prefill %d: %+v", seq, r)
		}
	}
	pending := commitWithSends(t, f, src, []Envelope{
		{To: full, Name: "m1"},
		{To: open, Name: "m2"},
		{To: full, Name: "m3"},
	})

	p := NewProc(f, NewHandlerSet(), ProcOptions{MailboxCap: 2})
	var report RunReport
	if err := p.deliver(context.Background(), src, pending, &report); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := f.mailbox(t, open.Key(), 0).fetch().QueueLen; got != 1 {
		t.Fatalf("open destination queue = %d, want 1 (blocked behind full dest)", got)
	}
	if !f.dir[open.DirEntry()] {
		t.Fatal("open destination not registered")
	}
	// Nothing contiguous delivered → nothing acked; all three entries
	// must survive for the retry.
	if got := f.mailbox(t, src.Key(), 0).fetch().OutLen; got != 3 {
		t.Fatalf("outbox = %d entries, want 3", got)
	}

	// Drain the busy destination and retry: the full-dest entries land in
	// order, the already-delivered one dedups, and everything acks.
	fm.commit(CommitReq{EnqSeq: fm.fetch().EnqSeq, From: full.Key()})
	fm.commit(CommitReq{EnqSeq: fm.fetch().EnqSeq, From: full.Key()})
	srcBox := f.mailbox(t, src.Key(), 0)
	outCopy := make([]OutEntry, len(srcBox.outbox))
	copy(outCopy, srcBox.outbox)
	var report2 RunReport
	if err := p.deliver(context.Background(), src, outCopy, &report2); err != nil {
		t.Fatalf("retry deliver: %v", err)
	}
	if got := f.mailbox(t, src.Key(), 0).fetch().OutLen; got != 0 {
		t.Fatalf("outbox after retry = %d entries, want 0", got)
	}
	if got := f.mailbox(t, full.Key(), 0).fetch().QueueLen; got != 2 {
		t.Fatalf("busy destination queue = %d, want 2 (m1, m3 in order)", got)
	}
	if got := f.mailbox(t, open.Key(), 0).fetch().QueueLen; got != 1 {
		t.Fatalf("open destination queue = %d, want 1 (m2 delivered once)", got)
	}
	bm := f.mailbox(t, full.Key(), 0)
	if bm.queue[0].Env.Name != "m1" || bm.queue[1].Env.Name != "m3" {
		t.Fatalf("per-destination order lost: %q, %q", bm.queue[0].Env.Name, bm.queue[1].Env.Name)
	}
}

// TestDeliverAcksDuplicateReply pins the reply-redelivery path: a reply
// whose future is already completed counts as delivered, recognised via
// the error sentinel even in its wire-decoded form.
func TestDeliverAcksDuplicateReply(t *testing.T) {
	f := newFakeInvoker()
	src := Address{FnType: "src", ID: "1"}
	f.futures["rk"] = []byte("already") // the earlier attempt delivered it
	pending := commitWithSends(t, f, src, []Envelope{
		{To: Address{FnType: ReplyFnType, ID: "rk"}, Body: []byte("again")},
	})
	p := NewProc(f, NewHandlerSet(), ProcOptions{})
	var report RunReport
	if err := p.deliver(context.Background(), src, pending, &report); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	if got := f.mailbox(t, src.Key(), 0).fetch().OutLen; got != 0 {
		t.Fatalf("outbox not acked after duplicate reply: %d entries", got)
	}
}

// TestSenderRetriesRegistrationAfterFailure pins the client-side half of
// the registration hole: a Send whose push made the queue nonempty but
// whose directory Put failed must complete the registration on the next
// Send, even though that send no longer observes QueueLen == 1.
func TestSenderRetriesRegistrationAfterFailure(t *testing.T) {
	f := newFakeInvoker()
	f.dirErrs = 1
	dst := Address{FnType: "dst", ID: "1"}
	s := NewSender(f, "client/1", 0)
	if err := s.Send(context.Background(), dst, "a", nil, ""); err == nil {
		t.Fatal("Send succeeded despite registration failure")
	}
	if err := s.Send(context.Background(), dst, "b", nil, ""); err != nil {
		t.Fatalf("second Send: %v", err)
	}
	if !f.dir[dst.DirEntry()] {
		t.Fatalf("registration not retried: %v", f.dir)
	}
	if got := f.mailbox(t, dst.Key(), 0).fetch().QueueLen; got != 2 {
		t.Fatalf("destination queue = %d, want 2", got)
	}
}

// TestSenderRegistersOnPushDup pins the retry-after-ambiguous-error case:
// a resent push that dedups must still register the destination while
// its queue is nonempty (the first attempt may have died pre-registration).
func TestSenderRegistersOnPushDup(t *testing.T) {
	f := newFakeInvoker()
	dst := Address{FnType: "dst", ID: "1"}
	// First attempt applied the push but crashed before registering: model
	// it with a direct PushEnvelope under the sender's identity and seq 1.
	env := Envelope{To: dst, From: "client/1", Seq: 1, Name: "a"}
	if r, err := PushEnvelope(context.Background(), f, env, 0); err != nil || r.Status != PushOK {
		t.Fatalf("simulated first push: %+v %v", r, err)
	}
	// The restarted client resends through a fresh Sender (same identity,
	// seq restarts at 1) — the push dedups, the registration must not.
	s := NewSender(f, "client/1", 0)
	if err := s.Send(context.Background(), dst, "a", nil, ""); err != nil {
		t.Fatalf("resend: %v", err)
	}
	if !f.dir[dst.DirEntry()] {
		t.Fatalf("destination not registered on dup resend: %v", f.dir)
	}
	if got := f.mailbox(t, dst.Key(), 0).fetch().QueueLen; got != 1 {
		t.Fatalf("destination queue = %d, want 1 (dup enqueued)", got)
	}
}

// TestValidateFnTypeAndAddress pins the addressing invariants: directory
// entries split at the first '/', so types with slashes (or empty IDs)
// would produce entries that parse back to undispatchable addresses.
func TestValidateFnTypeAndAddress(t *testing.T) {
	hs := NewHandlerSet()
	noop := func(*Ctx, Msg) error { return nil }
	for _, bad := range []string{"", "_hidden", "a/b"} {
		if err := hs.Register(bad, noop); err == nil {
			t.Errorf("Register(%q) accepted", bad)
		}
	}
	if err := hs.Register("ok", noop); err != nil {
		t.Fatalf("Register(ok): %v", err)
	}
	s := NewSender(newFakeInvoker(), "client/1", 0)
	for _, bad := range []Address{
		{FnType: "a/b", ID: "x"},
		{FnType: "", ID: "x"},
		{FnType: "ok", ID: ""},
	} {
		if err := s.Send(context.Background(), bad, "m", nil, ""); err == nil {
			t.Errorf("Send to %q accepted", bad)
		}
	}
	c := &Ctx{}
	if err := c.Send(Address{FnType: "a/b", ID: "x"}, "m", nil); err == nil {
		t.Error("Ctx.Send to slashed type accepted")
	}
}

// TestFutureAlreadySetSurvivesWire pins that the already-completed-future
// verdict rests on an error sentinel, not on message text: the decoded
// wire error (bare and wrapped) must satisfy errors.Is.
func TestFutureAlreadySetSurvivesWire(t *testing.T) {
	bare := core.DecodeError(core.EncodeError(objects.ErrFutureAlreadySet))
	if !isFutureAlreadySet(bare) {
		t.Fatalf("bare wire error not recognised: %v", bare)
	}
	wrapped := core.DecodeError(objects.ErrFutureAlreadySet.Error() + ": key rk")
	if !isFutureAlreadySet(wrapped) {
		t.Fatalf("wrapped wire error not recognised: %v", wrapped)
	}
	if isFutureAlreadySet(errors.New("some other failure")) {
		t.Fatal("unrelated error recognised as future-already-set")
	}
}

// A pass over one message ends at the commit that empties the queue: it
// issues one Fetch, not a second that finds the queue empty.
func TestRunStopsAtEmptyQueueWithoutFetch(t *testing.T) {
	f := newFakeInvoker()
	dst := Address{FnType: "fn", ID: "1"}
	if err := NewSender(f, "client/1", 0).Send(context.Background(), dst, "m", nil, ""); err != nil {
		t.Fatal(err)
	}
	hs := NewHandlerSet()
	if err := hs.Register("fn", func(*Ctx, Msg) error { return nil }); err != nil {
		t.Fatal(err)
	}
	f.calls = make(map[string]int)
	report, err := NewProc(f, hs, ProcOptions{}).Run(context.Background(), dst)
	if err != nil {
		t.Fatal(err)
	}
	if report != (RunReport{Processed: 1}) {
		t.Fatalf("report = %+v, want one message processed and nothing left", report)
	}
	if got := f.calls["Fetch"]; got != 1 {
		t.Fatalf("the pass issued %d Fetch calls, want 1", got)
	}
}

// A sender whose first push finds the queue nonempty lists the instance
// before acking: the push that made the queue nonempty owes the
// activation, and if its sender died first, only a re-list of the
// directory finds the messages acked behind it.
func TestSenderListsBehindAnotherSendersPush(t *testing.T) {
	f := newFakeInvoker()
	dst := Address{FnType: "dst", ID: "1"}
	// Another sender's push made the queue nonempty and died before
	// activating.
	if r, err := PushEnvelope(context.Background(), f, Envelope{To: dst, From: "gone", Seq: 1, Name: "a"}, 0); err != nil || r.QueueLen != 1 {
		t.Fatalf("first push: %+v %v", r, err)
	}
	if err := NewSender(f, "client/1", 0).Send(context.Background(), dst, "b", nil, ""); err != nil {
		t.Fatal(err)
	}
	if !f.dir[dst.DirEntry()] {
		t.Fatalf("a push acked behind an unactivated one left the instance unlisted: %v", f.dir)
	}
}
