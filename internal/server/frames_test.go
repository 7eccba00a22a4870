package server

import (
	"bytes"
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

// frameCodec is one control frame's encoder and decoder behind any, with a
// valid sample frame.
type frameCodec struct {
	name   string
	frame  []byte
	sample any
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)
}

func codecOf[T any](name string, sample T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) frameCodec {
	frame, err := enc(sample)
	if err != nil {
		panic(err)
	}
	return frameCodec{
		name: name, frame: frame, sample: sample,
		encode: func(v any) ([]byte, error) { return enc(v.(T)) },
		decode: func(b []byte) (any, error) {
			v, err := dec(b)
			return v, err
		},
	}
}

func infallible[T any](enc func(T) []byte) func(T) ([]byte, error) {
	return func(v T) ([]byte, error) { return enc(v), nil }
}

// controlFrames lists every control frame codec with a sample message
// that sets every field.
func controlFrames() []frameCodec {
	id := totalorder.MsgID{Origin: "n1", Seq: 1 << 40}
	ref := core.Ref{Type: objects.TypeKV, Key: "k/1"}
	return []frameCodec{
		codecOf("propose", proposeMsg{ID: id, Payload: []byte("round payload"), Fence: 7},
			infallible(proposeMsg.encode), decodeProposeMsg),
		codecOf("propose reply", uint64(12345), infallible(encodeTimestamp), decodeTimestamp),
		codecOf("final", finalMsg{ID: id, TS: 99}, infallible(finalMsg.encode), decodeFinalMsg),
		codecOf("final reply", finalResp{Version: 3, Replays: 1}, infallible(finalResp.encode), decodeFinalResp),
		codecOf("abort", id, infallible(encodeAbort), decodeAbort),
		codecOf("lease request", LeaseRequest{Ref: ref, Persist: true, HolderAddr: "cache-1"},
			infallible(LeaseRequest.Encode), decodeLeaseRequest),
		codecOf("lease response", LeaseResponse{Granted: true, Reason: "r", TTLMillis: 2000, Epoch: 5,
			Init: []any{int64(3), "x"}, Snapshot: []byte{1, 2, 3}}, LeaseResponse.encode, DecodeLeaseResponse),
		codecOf("invalidate", InvalidateMsg{Ref: ref, Epoch: 9}, infallible(InvalidateMsg.encode), DecodeInvalidateMsg),
	}
}

// Every frame round-trips, and its decoder refuses every proper prefix of
// a valid frame, the frame plus one byte, and every other frame.
func TestControlFramesRoundTripAndRejectTruncation(t *testing.T) {
	codecs := controlFrames()
	for _, c := range codecs {
		got, err := c.decode(c.frame)
		if err != nil || !codectest.SameDecode(got, c.sample) {
			t.Fatalf("%s: decoded %#v (err %v), want %#v", c.name, got, err, c.sample)
		}
		for i := 0; i < len(c.frame); i++ {
			if _, err := c.decode(c.frame[:i]); err == nil {
				t.Errorf("%s: %d-byte prefix of a %d-byte frame decoded", c.name, i, len(c.frame))
			}
		}
		if _, err := c.decode(append(bytes.Clone(c.frame), 0)); err == nil {
			t.Errorf("%s: frame with a trailing byte decoded", c.name)
		}
		for _, other := range codecs {
			if _, err := c.decode(other.frame); err == nil && other.name != c.name {
				t.Errorf("%s decoder accepted a %s frame", c.name, other.name)
			}
		}
	}
}

// FuzzControlFrames throws raw bytes at all eight control frame decoders.
// Any outcome is acceptable except a panic or a runaway allocation; a frame
// that decodes must re-encode to one that decodes the same.
func FuzzControlFrames(f *testing.F) {
	for _, c := range controlFrames() {
		f.Add(c.frame)
		f.Add(c.frame[:len(c.frame)-1])
		f.Add(append(bytes.Clone(c.frame), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{frameLeaseRequest, 0, 0, 2, 0}) // a bool byte that is neither 0 nor 1
	f.Add([]byte{framePropose, 1, 'n', 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	codecs := controlFrames()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			msg, err := c.decode(data)
			if err != nil {
				continue
			}
			re, err := c.encode(msg)
			if err != nil {
				continue // a gob-fallback Init value need not re-encode
			}
			again, err := c.decode(re)
			if err != nil {
				t.Fatalf("%s: re-decode of re-encoded frame: %v", c.name, err)
			}
			if !codectest.SameDecode(msg, again) {
				t.Fatalf("%s: re-encode not stable:\n 1: %#v\n 2: %#v", c.name, msg, again)
			}
		}
	})
}
