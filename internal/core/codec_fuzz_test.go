package core

import (
	"math"
	"testing"

	"crucial/internal/core/codectest"
)

// sameDecode is the fuzzers' comparator (codectest.SameDecode).
var sameDecode = codectest.SameDecode

// TestSameDecodeKeepsTypes pins the fuzzers' comparator: only NaN is
// relaxed; a changed element type or width, or nil against empty, fails.
func TestSameDecodeKeepsTypes(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		a, b any
		want bool
	}{
		{Response{Results: []any{nan, []float64{nan}, map[string]float64{"a": 1, "b": nan}}},
			Response{Results: []any{nan, []float64{nan}, map[string]float64{"a": 1, "b": nan}}}, true},
		{[]any{int64(1)}, []any{float64(1)}, false},
		{[]any{int64(1)}, []any{int32(1)}, false},
		{[]any{[]float64{}}, []any{[]float64(nil)}, false},
		{map[string]any{"k": int64(1)}, map[string]any{"j": int64(1)}, false},
		{Invocation{Args: []any{nan}}, Invocation{Args: []any{0.0}}, false},
	} {
		if got := sameDecode(c.a, c.b); got != c.want {
			t.Errorf("sameDecode(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// FuzzInvocationRoundTrip builds invocations from fuzzer-chosen scalars
// plus structured args derived from the raw byte input, and asserts
// encode→decode is the identity.
func FuzzInvocationRoundTrip(f *testing.F) {
	f.Add("Counter", "c/1", "Add", int64(1), 3.14, true, []byte("xyz"))
	f.Add("", "", "", int64(-1<<62), -0.0, false, []byte{})
	f.Add("KVMap", "k", "Put", int64(0), 1e308, true, []byte{0xC7, 0x01, 'I'})
	f.Fuzz(func(t *testing.T, typ, key, method string, i int64, fv float64, b bool, raw []byte) {
		in := Invocation{
			Ref:    Ref{Type: typ, Key: key},
			Method: method,
			Args: []any{
				i, fv, b, string(raw),
				[]int64{i, -i}, []float64{fv},
				[]any{i, string(raw), []any{b}},
				map[string]any{key: i},
				map[string]int64{method: i},
			},
			Persist: b,
			Trace:   TraceContext{TraceID: uint64(i), SpanID: uint64(len(raw))},
		}
		if len(raw) > 0 {
			// Append a copy: decode must produce an equal, non-aliased slice.
			in.Args = append(in.Args, append([]byte(nil), raw...))
		}
		data, err := EncodeInvocation(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := DecodeInvocation(data)
		if err != nil {
			t.Fatalf("decode of freshly encoded frame: %v", err)
		}
		if !sameDecode(in, out) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
		}
	})
}

// FuzzDecodeInvocation throws raw bytes at the decoder. Any outcome is
// acceptable except a panic or runaway allocation; valid frames must
// re-encode to something that decodes equal. DecodeInvocationOn, which
// leaves Init encoded, accepts what DecodeInvocation accepts, with the
// same Init once InitValues decodes it, and refuses what it refuses but
// for a gob-fallback Init value's content, which InitValues then refuses.
func FuzzDecodeInvocation(f *testing.F) {
	seed, _ := EncodeInvocation(Invocation{
		Ref: Ref{Type: "T", Key: "k"}, Method: "m",
		Args: []any{int64(1), "s", []float64{2}},
	})
	f.Add(seed)
	f.Add([]byte{wireMagic, wireVersion, wireInvocation})
	f.Add([]byte{wireMagic, wireVersion + 9, wireInvocation, 0, 0})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add(gobFrame(f, Invocation{Ref: Ref{Type: "T", Key: "k"}, Method: "m"}))
	f.Add(append(append([]byte(nil), seed...), 0))
	// Stamp flag set with a zero client id: Stamped() would be false, so a
	// re-encode would drop the Seq — the decoder must refuse it.
	f.Add([]byte("\xc7\x01I\x00\x00\x00\x00\x00200\x00\x800"))
	withInit, _ := EncodeInvocation(Invocation{Ref: Ref{Type: "T", Key: "k"}, Method: "m",
		Init: []any{int64(3), []any{"x", map[string]int64{"i": 1}}, [][]float64{{1}}}})
	f.Add(withInit)
	f.Fuzz(func(t *testing.T, data []byte) {
		inv, err := DecodeInvocation(data)
		lazy, lazyErr := DecodeInvocationOn(data, Ref{})
		if err != nil {
			if lazyErr == nil {
				if _, initErr := lazy.InitValues(); initErr == nil {
					t.Fatalf("DecodeInvocationOn and InitValues accept a frame DecodeInvocation refuses: %v", err)
				}
			}
			return
		}
		if lazyErr != nil {
			t.Fatalf("DecodeInvocationOn refuses a frame DecodeInvocation accepts: %v", lazyErr)
		}
		if init, err := lazy.InitValues(); err != nil || !sameDecode(init, inv.Init) {
			t.Fatalf("InitValues = %#v (err %v), want %#v", init, err, inv.Init)
		}
		re, err := EncodeInvocation(inv)
		if err != nil {
			// A gob-fallback value can decode to a type the encoder
			// rejects; skip those.
			t.Skip()
		}
		again, err := DecodeInvocation(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		if !sameDecode(inv, again) {
			t.Fatalf("re-encode not stable:\n 1: %#v\n 2: %#v", inv, again)
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeInvocation for the response side.
func FuzzDecodeResponse(f *testing.F) {
	seed, _ := EncodeResponse(Response{Results: []any{int64(7), "r"}, Err: "e"})
	f.Add(seed)
	f.Add([]byte{wireMagic, wireVersion, wireResponse})
	f.Add([]byte{wireMagic, wireVersion, wireResponse, 0, 0})
	f.Add(gobFrame(f, Response{Results: []any{int64(7)}, Err: "e"}))
	f.Add(append(append([]byte(nil), seed...), 0))
	f.Add([]byte("\xc7\x01R\x02\b\xff\xff000000\x030\b00000000")) // a NaN result
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		re, err := EncodeResponse(resp)
		if err != nil {
			t.Skip()
		}
		again, err := DecodeResponse(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		if !sameDecode(resp, again) {
			t.Fatalf("re-encode not stable:\n 1: %#v\n 2: %#v", resp, again)
		}
	})
}
