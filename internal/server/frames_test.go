package server

import (
	"bytes"
	"context"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/core/codectest"
	"crucial/internal/durability"
	"crucial/internal/membership"
	"crucial/internal/netsim"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/storage/s3sim"
	"crucial/internal/totalorder"
)

// A round parked at a member — it arrived ahead of its predecessor —
// keeps its payload past its decode: the WAL logs it once the round
// applies, and flushes it later still, while the rpc server recycles the
// request buffer for the next frame. The decoder must copy the payload
// out: one that aliased the buffer would log whatever the next frame wrote
// there, and a restart would replay it.
func TestParkedAcceptPayloadOutlivesRequestBuffer(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	store := s3sim.New(s3sim.Options{Profile: netsim.Zero(), ListLag: -1})
	cfg := validConfig(net, dir)
	cfg.Durability, cfg.ColdStore = core.DurabilityPolicy{Enabled: true}, store
	n := startNode(t, cfg)
	ctx := context.Background()
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "aliased"}
	set := func(seq uint64, v int64) []byte {
		return acceptBody(t, dir, "n9", seq, seq == 1,
			core.Invocation{Ref: ref, Method: "Set", Args: []any{v}, Persist: true})
	}
	if _, err := n.handleAccept(ctx, set(1, 7)); err != nil {
		t.Fatal(err)
	}
	third := set(3, 42)
	want, err := decodeAccept(bytes.Clone(third), nil)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := n.handleAccept(ctx, third)
		parked <- err
	}()
	for !busyAt(n, ref) { // admitted: the frame is decoded and parked
		select {
		case err := <-parked:
			t.Fatalf("round 3 ran ahead of round 2: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	for i := range third { // the recycled buffer now holds another frame
		third[i] = 0xff
	}
	if _, err := n.handleAccept(ctx, set(2, 9)); err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked round: %v", err)
	}
	if _, err := n.dur.log.SealSegment(ctx); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := durability.ReadLog(ctx, store, "n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 3 || !bytes.Equal(recs[2].Payload, want.Payload) {
		t.Fatalf("logged %d records; the parked round's is not its payload as sent", len(recs))
	}
}

// acceptBody is an ACCEPT frame for a round from origin at seq under the
// directory's current view, carrying invs: seq 1 follows no copy, any
// other seq the round before it in that view.
func acceptBody(t *testing.T, dir *membership.Directory, origin string, seq uint64, genesis bool, invs ...core.Invocation) []byte {
	t.Helper()
	v := dir.View()
	prev := position{Epoch: v.ID, Seq: seq - 1}
	if seq == 1 {
		prev = position{}
	}
	return acceptMsg{ID: totalorder.MsgID{Origin: origin, Seq: seq}, Ref: invs[0].Ref, Fence: v.Fence(),
		Prev: prev, At: position{Epoch: v.ID, Seq: seq}, Payload: roundPayload(t, genesis, invs...)}.encode()
}

// controlFrames lists every control frame codec with a sample message
// that sets every field.
func controlFrames() []codectest.Codec {
	id := totalorder.MsgID{Origin: "n1", Seq: 1 << 40}
	ref := core.Ref{Type: objects.TypeKV, Key: "k/1"}
	return []codectest.Codec{
		codectest.Of("accept", acceptMsg{ID: id, Ref: ref, Fence: 7, Prev: position{Epoch: 3, Seq: 1 << 35},
			At: position{Epoch: 1 << 50, Seq: 1}, Payload: []byte("round payload")},
			codectest.Infallible(acceptMsg.encode), decodeAcceptCopy),
		codectest.Of("accept reply", acceptAck{}, codectest.Infallible(acceptAck.encode), decodeAcceptAck),
		codectest.Of("lease request", LeaseRequest{Ref: ref, Persist: true, HolderAddr: "cache-1"},
			codectest.Infallible(LeaseRequest.Encode), func(b []byte) (LeaseRequest, error) { return decodeLeaseRequest(b, nil) }),
		codectest.Of("lease response", LeaseResponse{Granted: true, Reason: "r", TTLMillis: 2000, Epoch: 5,
			Init: []any{int64(3), "x"}, Snapshot: []byte{1, 2, 3}}, LeaseResponse.encode, DecodeLeaseResponse),
		codectest.Of("invalidate", InvalidateMsg{Ref: ref, Epoch: 9}, codectest.Infallible(InvalidateMsg.encode), DecodeInvalidateMsg),
	}
}

// decodeAcceptCopy is decodeAccept with the payload copied out of the
// frame, which it aliases by design (handleAccept copies it only for the
// WAL), so that the frame table's aliasing check covers every other field.
func decodeAcceptCopy(data []byte) (acceptMsg, error) {
	m, err := decodeAccept(data, nil)
	m.Payload = bytes.Clone(m.Payload)
	return m, err
}

// Every frame round-trips without aliasing its input, and its decoder
// refuses every proper prefix of a valid frame, the frame plus one byte,
// and every other frame.
func TestControlFramesRoundTripAndRejectTruncation(t *testing.T) {
	codectest.CheckFrames(t, controlFrames())
}

// FuzzControlFrames throws raw bytes at all five control frame decoders.
// Any outcome is acceptable except a panic or a runaway allocation; a frame
// that decodes must re-encode to one that decodes the same. Besides the
// table's frames the seeds hold the retired Skeen frames (PROPOSE, its
// timestamp reply, FINAL, its reply, ABORT), which no decoder may accept,
// and ACCEPT frames with a field that overflows or runs past the end.
func FuzzControlFrames(f *testing.F) {
	accept := acceptMsg{ID: totalorder.MsgID{Origin: "n1", Seq: 9}, Ref: core.Ref{Type: "T", Key: "k"},
		Fence: 5, Prev: position{Epoch: 4, Seq: 1}, At: position{Epoch: 4, Seq: 2}, Payload: []byte{1, 2}}.encode()
	codectest.FuzzFrames(f, controlFrames(),
		[]byte{frameLeaseRequest, 0, 0, 2, 0},   // a bool byte that is neither 0 nor 1
		[]byte{'P', 2, 'n', '1', 9, 5, 2, 1, 2}, // PROPOSE: MsgID, Fence, Payload
		[]byte{'p', 12},                         // its timestamp reply
		[]byte{'F', 2, 'n', '1', 9, 99},         // FINAL: MsgID, TS
		[]byte{'f', 3, 1},                       // FINAL's reply
		[]byte{'A', 2, 'n', '1', 9},             // ABORT: MsgID
		[]byte{frameAccept, 1, 'n', 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},                           // a fence past the end
		append([]byte{frameAccept, 1, 'n', 1, 1, 'T', 1, 'k', 5}, bytes.Repeat([]byte{0xff}, 11)...), // a seq overflowing uint64
		append(bytes.Clone(accept[:len(accept)-3]), 0x7f, 1, 2),                                      // a payload length past the end
		[]byte{frameAcceptReply, 0}, // an ack with a trailing byte
		accept[:1],
	)
}

// FuzzRoundPayload throws raw bytes, read against a ref, at the in-place
// round walker (readRound). Any outcome is acceptable except a panic; a
// walk that succeeds returns only invocations on the ref (on the first
// one's when the ref is zero, as in WAL replay), and re-encoding them
// (encodeRoundPayload) gives totalorder.AppendBatch's bytes for their
// separate encodings, which walk back to the same invocations.
func FuzzRoundPayload(f *testing.F) {
	ref := core.Ref{Type: objects.TypeKV, Key: "k"}
	put := core.Invocation{Ref: ref, Method: "Put", Args: []any{"v", []byte{1}}, Init: []any{int64(2)},
		Persist: true, ClientID: 3, Seq: 4}
	get := core.Invocation{Ref: ref, Method: "Get", ReadOnly: true}
	other := core.Invocation{Ref: core.Ref{Type: objects.TypeKV, Key: "j"}, Method: "Get"}
	for _, invs := range [][]core.Invocation{{put}, {put, get, put}, {put, other}, {other}} {
		for _, genesis := range []bool{false, true} {
			p, err := encodeRoundPayload(genesis, invs)
			if err != nil {
				f.Fatal(err)
			}
			for _, on := range []core.Ref{ref, {}} {
				f.Add(p, on.Type, on.Key)
				f.Add(p[:len(p)-1], on.Type, on.Key)
				f.Add(append(bytes.Clone(p), 0), on.Type, on.Key)
			}
		}
	}
	for _, p := range [][]byte{{}, {2}, {roundExisting, 0}, {roundGenesis, 1, 0}, {roundExisting, 0xff, 0xff, 0xff, 0xff, 0x0f}} {
		f.Add(p, ref.Type, ref.Key)
	}
	f.Fuzz(func(t *testing.T, payload []byte, typ, key string) {
		on := core.Ref{Type: typ, Key: key}
		var one [1]core.Invocation
		genesis, invs, err := readRound(payload, on, one[:])
		if err != nil {
			return
		}
		want := on
		if want == (core.Ref{}) {
			want = invs[0].Ref
		}
		parts := make([][]byte, len(invs))
		for i, inv := range invs {
			if inv.Ref != want {
				t.Fatalf("invocation %d of a round read on %s is on %s", i, want, inv.Ref)
			}
			if parts[i], err = core.EncodeInvocation(inv); err != nil {
				return // a gob-fallback value need not re-encode
			}
		}
		re, err := encodeRoundPayload(genesis, invs)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		flag := roundExisting
		if genesis {
			flag = roundGenesis
		}
		if !bytes.Equal(re, totalorder.AppendBatch([]byte{flag}, parts)) {
			t.Fatalf("re-encoded payload differs from the batch container of its invocations")
		}
		again, invsAgain, err := readRound(re, on, nil)
		if err != nil || again != genesis || !codectest.SameDecode(invs, invsAgain) {
			t.Fatalf("re-encoded payload walks to genesis %v, %#v (err %v), want %v, %#v", again, invsAgain, err, genesis, invs)
		}
	})
}

// stateFrames lists the frames that carry object state between nodes and
// into checkpoints, with samples that set every field: the transfer record
// (whose dedup window holds two clients, one with a failed call), the
// fetch request and its reply.
func stateFrames() []codectest.Codec {
	ref := core.Ref{Type: objects.TypeAtomicReference, Key: "k/2"}
	var dedup dedupState
	dedup.record(7, 1, []any{int64(4), "r", []byte{9}}, "")
	dedup.record(7, 2, nil, "boom")
	dedup.record(3, 1, []any{true}, "")
	msg := transferMsg{Ref: ref, Init: []any{int64(1), nil}, Persist: true, Snapshot: []byte("state body"),
		Dedup: dedup, At: position{Epoch: 1 << 60, Seq: 5}}
	return []codectest.Codec{
		codectest.Of("transfer", msg, transferMsg.encode, decodeTransfer),
		codectest.Of("fetch", fetchReq{Ref: ref, Have: position{Epoch: 9, Seq: 1 << 33}},
			codectest.Infallible(fetchReq.encode), decodeFetch),
		codectest.Of("fetch reply", fetchResp{Found: true, Busy: true, At: msg.At, Msg: &msg}, fetchResp.encode, decodeFetchResp),
	}
}

// The state frames keep the control frames' rules, and no decoder of
// either set accepts a frame of the other.
func TestStateBodiesRoundTripAndRejectTruncation(t *testing.T) {
	codectest.CheckFrames(t, append(stateFrames(), controlFrames()...))
}

// FuzzStateBodies throws raw bytes at the transfer and fetch decoders (see
// stateFrames), under the rules of FuzzControlFrames.
func FuzzStateBodies(f *testing.F) {
	positionOnly, err := fetchResp{Found: true, At: position{Epoch: 2, Seq: 7}}.encode()
	if err != nil {
		f.Fatal(err)
	}
	codectest.FuzzFrames(f, stateFrames(), []byte{frameTransfer, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}, positionOnly)
}
