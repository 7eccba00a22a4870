package core

import (
	"reflect"
	"testing"
)

// TestStampRoundTrip pins the at-most-once stamp through the fast codec.
func TestStampRoundTrip(t *testing.T) {
	in := sampleInvocation()
	in.ClientID = 0xC0FFEE
	in.Seq = 917
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
	if !out.Stamped() {
		t.Fatal("decoded invocation lost its stamp")
	}
}

// TestUnstampedFrameDecodesZeroStamp pins the optional stamp: a frame
// with flags bit1 clear carries no stamp bytes and decodes with a zero
// stamp, not an error.
func TestUnstampedFrameDecodesZeroStamp(t *testing.T) {
	in := sampleInvocation() // sampleInvocation carries no stamp
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stamped() || out.ClientID != 0 || out.Seq != 0 {
		t.Fatalf("unstamped frame decoded with stamp (%d, %d)", out.ClientID, out.Seq)
	}
}

// TestStampedFrameRejectsTrailingBytes pins the exact-frame rule: there
// is no other decoder to stay compatible with, so input after the last
// field (the stamp, when present) is corruption and must fail the decode.
func TestStampedFrameRejectsTrailingBytes(t *testing.T) {
	for _, in := range []Invocation{
		{Ref: Ref{Type: "T", Key: "k"}, Method: "m", ClientID: 7, Seq: 3},
		{Ref: Ref{Type: "T", Key: "k"}, Method: "m"},
	} {
		data, err := EncodeInvocation(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeInvocation(append(data, 0xAA)); err == nil {
			t.Fatalf("stamped=%v: frame with a trailing byte accepted", in.Stamped())
		}
	}
	data, err := EncodeResponse(Response{Results: []any{int64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(append(data, 0xAA)); err == nil {
		t.Fatal("response with a trailing byte accepted")
	}
}

// TestStampDecodeCounters checks that DecodeInvocation splits decoded
// invocations into the stamped and unstamped counters.
func TestStampDecodeCounters(t *testing.T) {
	stamped, _ := EncodeInvocation(Invocation{Ref: Ref{Type: "T", Key: "k"}, Method: "m", ClientID: 1, Seq: 1})
	plain, _ := EncodeInvocation(Invocation{Ref: Ref{Type: "T", Key: "k"}, Method: "m"})

	before := ReadCodecStats()
	for _, frame := range [][]byte{stamped, plain} {
		if _, err := DecodeInvocation(frame); err != nil {
			t.Fatal(err)
		}
	}
	after := ReadCodecStats()
	if got := after.StampedDecodes - before.StampedDecodes; got != 1 {
		t.Fatalf("stamped decodes moved by %d, want 1", got)
	}
	if got := after.UnstampedDecodes - before.UnstampedDecodes; got != 1 {
		t.Fatalf("unstamped decodes moved by %d, want 1", got)
	}
}
