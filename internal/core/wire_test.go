package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleInvocation exercises every built-in tag type in one message.
func sampleInvocation() Invocation {
	return Invocation{
		Ref:    Ref{Type: "KVMap", Key: "table/7"},
		Method: "MultiPut",
		Args: []any{
			nil, true, false,
			int(-42), int32(7), int64(-1 << 40), uint64(1 << 60),
			float32(1.5), float64(math.Pi),
			"hello, wire", []byte{0, 1, 2, 255},
			[]int{3, -1, 4}, []int64{-1, 1 << 50}, []float64{1.25, -2.5},
			[][]float64{{1, 2}, {3}},
			[]string{"a", "bb"},
			[]any{int64(1), "nested", []any{false}},
			map[string]any{"k": int64(9), "s": "v"},
			map[string]string{"a": "b"},
			map[string]float64{"pi": math.Pi},
			map[string]int64{"n": -7},
		},
		Init:    []any{int64(3), "init"},
		Persist: true,
		Trace:   TraceContext{TraceID: 0xDEADBEEF, SpanID: 42},
	}
}

func TestWireInvocationRoundTrip(t *testing.T) {
	in := sampleInvocation()
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != wireMagic {
		t.Fatal("EncodeInvocation did not produce fast-codec framing")
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	in := Response{
		Results: []any{int64(99), "ok", []float64{1, 2, 3}, map[string]any{"x": true}},
		Err:     "dso: object rebalancing in progress",
	}
	data, err := EncodeResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

// TestWireConcreteTypesPreserved pins the contract that decode reproduces
// the exact concrete types gob used to deliver, so object implementations'
// type switches keep working.
func TestWireConcreteTypesPreserved(t *testing.T) {
	args := sampleInvocation().Args
	data, err := EncodeInvocation(Invocation{Ref: Ref{Type: "T", Key: "k"}, Method: "m", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range args {
		if want == nil {
			if out.Args[i] != nil {
				t.Errorf("arg %d: want nil, got %T", i, out.Args[i])
			}
			continue
		}
		if got, want := reflect.TypeOf(out.Args[i]), reflect.TypeOf(want); got != want {
			t.Errorf("arg %d: concrete type %v, want %v", i, got, want)
		}
	}
}

// customPoint is a user type outside the built-in tag set; it must travel
// through the per-value gob fallback under the RegisterValue contract.
type customPoint struct{ X, Y int64 }

func TestWireGobFallbackForRegisteredValue(t *testing.T) {
	RegisterValue(customPoint{})
	before := ReadCodecStats()
	in := Invocation{
		Ref:    Ref{Type: "T", Key: "k"},
		Method: "m",
		Args:   []any{customPoint{X: 3, Y: -9}, int64(5)},
	}
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("fallback round trip mismatch: %#v vs %#v", in, out)
	}
	after := ReadCodecStats()
	if after.FallbackValues <= before.FallbackValues {
		t.Error("fallback counter did not advance")
	}
	if after.FastEncodes <= before.FastEncodes || after.FastDecodes <= before.FastDecodes {
		t.Error("fast-codec counters did not advance")
	}
}

func TestWireUnregisteredTypeFails(t *testing.T) {
	type unregistered struct{ Z chan int } // gob cannot encode channels
	_, err := EncodeInvocation(Invocation{
		Ref: Ref{Type: "T", Key: "k"}, Method: "m",
		Args: []any{unregistered{}},
	})
	if err == nil {
		t.Fatal("unencodable argument accepted")
	}
}

// gobFrame is v as one whole-message gob stream, a frame the decoders
// must reject.
func gobFrame(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireRejectsGobFrames checks there is one wire format: a whole-message
// gob Invocation or Response is a codec error, not a second decode path.
func TestWireRejectsGobFrames(t *testing.T) {
	RegisterValueTypes()
	_, err := DecodeInvocation(gobFrame(t, sampleInvocation()))
	if err == nil || !strings.Contains(err.Error(), "core: decode invocation") {
		t.Fatalf("gob invocation: err = %v, want a codec error", err)
	}
	_, err = DecodeResponse(gobFrame(t, Response{Results: []any{int64(1)}, Err: "boom"}))
	if err == nil || !strings.Contains(err.Error(), "core: decode response") {
		t.Fatalf("gob response: err = %v, want a codec error", err)
	}
}

func TestWireRejectsUnknownVersion(t *testing.T) {
	data, err := EncodeInvocation(sampleInvocation())
	if err != nil {
		t.Fatal(err)
	}
	data[1] = wireVersion + 1
	if _, err := DecodeInvocation(data); err == nil {
		t.Fatal("unknown codec version accepted")
	}
}

func TestWireRejectsCrossedKinds(t *testing.T) {
	inv, err := EncodeInvocation(sampleInvocation())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResponse(inv); err == nil {
		t.Fatal("invocation frame decoded as response")
	}
}

// TestWireTruncationNeverPanics walks every prefix of a valid message
// through the decoder: all must fail cleanly (or, for the full message,
// succeed), never panic or over-allocate.
func TestWireTruncationNeverPanics(t *testing.T) {
	data, err := EncodeInvocation(sampleInvocation())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := DecodeInvocation(data[:i]); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) decoded successfully", i, len(data))
		}
	}
	if _, err := DecodeInvocation(data); err != nil {
		t.Fatal(err)
	}
}

// TestWireHostileCountRejected feeds a frame whose value count claims far
// more elements than the payload could hold; the decoder must reject it
// without attempting the allocation.
func TestWireHostileCountRejected(t *testing.T) {
	data := []byte{wireMagic, wireVersion, wireInvocation,
		1, 'T', 1, 'k', 1, 'm',
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, // huge arg count
	}
	if _, err := DecodeInvocation(data); err == nil {
		t.Fatal("hostile count accepted")
	}
}

func TestAppendInvocationReusesBuffer(t *testing.T) {
	inv := sampleInvocation()
	buf := make([]byte, 0, 4096)
	out, err := AppendInvocation(buf, inv)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("AppendInvocation reallocated despite sufficient capacity")
	}
	got, err := DecodeInvocation(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inv, got) {
		t.Fatal("round trip through reused buffer mismatch")
	}
}

// TestWireDecodeDoesNotAliasInput pins the pooled-buffer contract: after
// decoding, mutating the input frame must not affect the decoded message.
func TestWireDecodeDoesNotAliasInput(t *testing.T) {
	in := Invocation{
		Ref: Ref{Type: "T", Key: "k"}, Method: "m",
		Args: []any{[]byte{1, 2, 3}, "str"},
	}
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA
	}
	if !reflect.DeepEqual(out.Args[0], []byte{1, 2, 3}) {
		t.Error("decoded []byte aliases the input frame")
	}
	if out.Args[1] != "str" {
		t.Error("decoded string corrupted after input reuse")
	}
}

// DecodeInvocationOn leaves a non-empty Init list encoded: it checks it,
// InitValues decodes it to what DecodeInvocation returns, a re-encode
// copies it byte for byte, and Owned detaches it from the frame.
func TestDecodeInvocationOnLeavesInitEncoded(t *testing.T) {
	RegisterValue(customPoint{})
	ref := Ref{Type: "T", Key: "k"}
	in := Invocation{Ref: ref, Method: "m", Args: []any{int64(7)}, ClientID: 2, Seq: 3,
		Init: []any{int64(1 << 40), "s", []byte{1}, []int{-1}, []int64{2}, []float64{0.5}, [][]float64{{1}, {}},
			[]string{"a"}, []any{int32(4), []any{true, nil}}, map[string]any{"m": uint64(5)},
			map[string]string{"k": "v"}, map[string]float64{"f": 1.5}, map[string]int64{"i": -6},
			float32(2.5), customPoint{X: 1}, false}}
	data, err := EncodeInvocation(in)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := DecodeInvocationOn(data, ref)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Init != nil {
		t.Fatalf("DecodeInvocationOn decoded Init: %#v", lazy.Init)
	}
	if init, err := lazy.InitValues(); err != nil || !sameDecode(init, eager.Init) {
		t.Fatalf("InitValues = %#v (err %v), want %#v", init, err, eager.Init)
	}
	if re, err := EncodeInvocation(lazy); err != nil || !bytes.Equal(re, data) {
		t.Fatalf("re-encoding the lazy decode differs from its frame (err %v)", err)
	}
	owned := lazy.Owned()
	frame := bytes.Clone(data)
	for i := range data { // the rpc server recycles the frame
		data[i] = 0
	}
	if init, err := owned.InitValues(); err != nil || !sameDecode(init, eager.Init) {
		t.Fatalf("Owned's Init after its frame went: %#v (err %v)", init, err)
	}
	copy(data, frame)

	// A bad value inside the list is refused, as DecodeInvocation refuses
	// it; only a gob-fallback value's content waits for InitValues.
	bad, _ := EncodeInvocation(Invocation{Ref: ref, Method: "m", Init: []any{customPoint{X: 1}}})
	list, _ := AppendValues(nil, []any{customPoint{X: 1}})
	gobAt := bytes.Index(bad, list) + 1 // past the list's count
	if bad[gobAt] != tagGob {
		t.Fatalf("byte %d is %d, not the gob tag", gobAt, bad[gobAt])
	}
	bad[gobAt+3] ^= 0xff // inside the gob stream, past its length
	if _, err := DecodeInvocation(bad); err == nil {
		t.Fatal("DecodeInvocation accepted a corrupt gob Init value")
	}
	if got, err := DecodeInvocationOn(bad, ref); err != nil {
		t.Fatalf("DecodeInvocationOn refused a frame whose gob content it does not read: %v", err)
	} else if _, err := got.InitValues(); err == nil {
		t.Fatal("InitValues accepted a corrupt gob Init value")
	}
	bad[gobAt] = 0xee // an unknown tag
	if _, err := DecodeInvocationOn(bad, ref); err == nil {
		t.Fatal("DecodeInvocationOn accepted an unknown value tag in Init")
	}
}
