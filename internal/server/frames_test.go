package server

import (
	"context"
	"testing"
	"time"

	"crucial/internal/core"
	"crucial/internal/core/codectest"
	"crucial/internal/membership"
	"crucial/internal/objects"
	"crucial/internal/rpc"
	"crucial/internal/totalorder"
)

// A PROPOSE's payload stays queued in the total order after its handler
// returns, and that is when the rpc server recycles the request buffer for
// the next frame. The decoder must copy the payload out: one that aliased
// the buffer would deliver whatever the next frame wrote there.
func TestProposePayloadOutlivesRequestBuffer(t *testing.T) {
	net := rpc.NewMemNetwork()
	dir := membership.NewDirectory(time.Hour)
	n := startNode(t, validConfig(net, dir))
	ref := core.Ref{Type: objects.TypeAtomicLong, Key: "aliased"}
	id := totalorder.MsgID{Origin: "n9", Seq: 1}
	body := proposeMsg{ID: id, Fence: dir.View().Fence(), Payload: roundPayload(t, true,
		core.Invocation{Ref: ref, Method: "Set", Args: []any{int64(42)}, Persist: true})}.encode()

	out, err := n.handlePropose(body)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := decodeTimestamp(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body { // the recycled buffer now holds another frame
		body[i] = 0xff
	}
	out, err = n.handleFinal(finalMsg{ID: id, TS: ts}.encode())
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := decodeFinalResp(out); err != nil || resp.Version != 1 {
		t.Fatalf("FINAL reply %+v (err %v), want the round applied at version 1", resp, err)
	}
	e, ok := n.lookupExisting(ref)
	if !ok {
		t.Fatal("the queued round did not create its object")
	}
	got, err := n.applyOne(context.Background(), e, core.Invocation{Ref: ref, Method: "Get"})
	if err != nil || len(got) != 1 || got[0] != int64(42) {
		t.Fatalf("Get = %v (err %v), want 42", got, err)
	}
}

// controlFrames lists every control frame codec with a sample message
// that sets every field.
func controlFrames() []codectest.Codec {
	id := totalorder.MsgID{Origin: "n1", Seq: 1 << 40}
	ref := core.Ref{Type: objects.TypeKV, Key: "k/1"}
	return []codectest.Codec{
		codectest.Of("propose", proposeMsg{ID: id, Payload: []byte("round payload"), Fence: 7},
			codectest.Infallible(proposeMsg.encode), decodeProposeMsg),
		codectest.Of("propose reply", uint64(12345), codectest.Infallible(encodeTimestamp), decodeTimestamp),
		codectest.Of("final", finalMsg{ID: id, TS: 99}, codectest.Infallible(finalMsg.encode), decodeFinalMsg),
		codectest.Of("final reply", finalResp{Version: 3, Replays: 1}, codectest.Infallible(finalResp.encode), decodeFinalResp),
		codectest.Of("abort", id, codectest.Infallible(encodeAbort), decodeAbort),
		codectest.Of("lease request", LeaseRequest{Ref: ref, Persist: true, HolderAddr: "cache-1"},
			codectest.Infallible(LeaseRequest.Encode), decodeLeaseRequest),
		codectest.Of("lease response", LeaseResponse{Granted: true, Reason: "r", TTLMillis: 2000, Epoch: 5,
			Init: []any{int64(3), "x"}, Snapshot: []byte{1, 2, 3}}, LeaseResponse.encode, DecodeLeaseResponse),
		codectest.Of("invalidate", InvalidateMsg{Ref: ref, Epoch: 9}, codectest.Infallible(InvalidateMsg.encode), DecodeInvalidateMsg),
	}
}

// Every frame round-trips without aliasing its input, and its decoder
// refuses every proper prefix of a valid frame, the frame plus one byte,
// and every other frame.
func TestControlFramesRoundTripAndRejectTruncation(t *testing.T) {
	codectest.CheckFrames(t, controlFrames())
}

// FuzzControlFrames throws raw bytes at all eight control frame decoders.
// Any outcome is acceptable except a panic or a runaway allocation; a frame
// that decodes must re-encode to one that decodes the same.
func FuzzControlFrames(f *testing.F) {
	codectest.FuzzFrames(f, controlFrames(),
		[]byte{frameLeaseRequest, 0, 0, 2, 0}, // a bool byte that is neither 0 nor 1
		[]byte{framePropose, 1, 'n', 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
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
		Dedup: dedup, Version: 1 << 33, Stale: true, Repair: true}
	return []codectest.Codec{
		codectest.Of("transfer", msg, transferMsg.encode, decodeTransfer),
		codectest.Of("fetch", ref, codectest.Infallible(encodeFetch), decodeFetch),
		codectest.Of("fetch reply", fetchResp{Found: true, Busy: true, Msg: msg}, fetchResp.encode, decodeFetchResp),
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
	codectest.FuzzFrames(f, stateFrames(), []byte{frameTransfer, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
}
