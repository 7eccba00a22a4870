package statefun

import (
	"testing"

	"crucial/internal/core/codectest"
)

// wireValues lists every tag-encoded value of the layer with a sample that
// sets every field.
func wireValues() []codectest.Codec {
	a := Address{FnType: "fn", ID: "i/1"}
	e1 := Envelope{To: a, From: "client/1", Seq: 1 << 35, Name: "add", Body: []byte("gob body"), ReplyTo: "reply/1"}
	e2 := Envelope{To: Address{FnType: ReplyFnType, ID: "reply/2"}, From: "fn/i/1", Seq: 2, Name: "r", Body: []byte{0}, ReplyTo: "x"}
	out := []OutEntry{{Seq: 3, Env: e1}, {Seq: 4, Env: e2}}
	mailbox := codectest.Of("mailbox", &Mailbox{
		capacity: 8, queue: []queuedMsg{{EnqSeq: 4, Env: e1}, {EnqSeq: 5, Env: e2}}, nextEnq: 5,
		state: []byte("state"), hasState: true, seen: map[string]uint64{"client/1": 9, "fn/i/1": 2},
		outbox: out, nextOut: 4, processed: 3, dups: 1, rejected: 2,
	}, (*Mailbox).Snapshot, func(b []byte) (*Mailbox, error) {
		m := &Mailbox{}
		return m, m.Restore(b)
	})
	mailbox.Unordered = true // the dedup window follows map order
	return []codectest.Codec{
		codectest.Of("address", a, codectest.Infallible(Address.Encode), DecodeAddress),
		codectest.Of("envelope", e1, codectest.Infallible(Envelope.encode), decodeEnvelope),
		codectest.Of("push result", PushResult{Status: PushFull, QueueLen: 8}, codectest.Infallible(PushResult.encode), decodePushResult),
		codectest.Of("task", Task{Has: true, EnqSeq: 4, Env: e1, State: []byte("state"), HasState: true, QueueLen: 2, OutLen: -1},
			codectest.Infallible(Task.encode), decodeTask),
		codectest.Of("commit request", CommitReq{EnqSeq: 4, From: "fn/i/1", State: []byte("s2"), SetState: true, Sends: []Envelope{e1, e2}},
			codectest.Infallible(CommitReq.encode), decodeCommitReq),
		codectest.Of("commit result", CommitResult{Applied: true, QueueLen: 6, Pending: out}, codectest.Infallible(CommitResult.encode), decodeCommitResult),
		codectest.Of("outbox", out, codectest.Infallible(encodeOutbox), decodeOutbox),
		codectest.Of("status", MailboxStatus{QueueLen: 1, OutboxLen: 2, Processed: 3, Dups: 4, Rejected: 5},
			codectest.Infallible(MailboxStatus.encode), decodeStatus),
		codectest.Of("run report", RunReport{Processed: 1, QueueLen: 2, OutboxLen: 3},
			codectest.Infallible(RunReport.Encode), DecodeRunReport),
		mailbox,
		codectest.Of("doorbell wake", doorbellWake{Nonce: 1<<63 | 5, Head: 4097, Relist: true, Ready: []Address{a, e2.To}},
			codectest.Infallible(doorbellWake.encode), decodeDoorbellWake),
	}
}

// Every wire value round-trips without aliasing its input, and its decoder
// refuses every proper prefix, a trailing byte and every other value.
func TestStateBodiesRoundTripAndRejectTruncation(t *testing.T) {
	codectest.CheckFrames(t, wireValues())
}

// FuzzStateBodies throws raw bytes at every wire value decoder, under the
// rules of codectest.FuzzFrames.
func FuzzStateBodies(f *testing.F) {
	codectest.FuzzFrames(f, wireValues(),
		[]byte{tagTask, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // a bool byte that is neither 0 nor 1
		[]byte{tagCommitReq, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		[]byte{tagDoorbellWake, 1, 0, 2, 0}) // a Relist byte that is neither 0 nor 1
}

// A pushed envelope stays queued after the Push returns, which is when the
// rpc server recycles the request buffer it was decoded from: the mailbox
// must hold a copy.
func TestMailboxPushOutlivesRequestBuffer(t *testing.T) {
	m := newTestMailbox(t, 8)
	want := Envelope{To: Address{FnType: "fn", ID: "a"}, From: "s", Seq: 1, Name: "n", Body: []byte("body"), ReplyTo: "r"}
	frame := want.encode()
	if _, err := m.Call(nil, "Push", []any{frame}); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	if got := m.fetch().Env; !codectest.SameDecode(got, want) {
		t.Fatalf("queued envelope %+v after the request buffer was reused, want %+v", got, want)
	}
}
