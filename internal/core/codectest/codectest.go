// Package codectest holds the checks shared by the tests and fuzzers of
// every package that decodes tag-encoded frames: a decoded message must
// survive re-encoding with every dynamic type, nil-ness and value intact
// (SameDecode), and a decoder must reject what is not exactly its own
// frame and keep nothing of its input (CheckFrames, FuzzFrames).
package codectest

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// SameDecode is reflect.DeepEqual except that a NaN equals a NaN. Floats
// cross the wire bit for bit, so a NaN decodes to a NaN, but it never
// DeepEquals itself. Every dynamic type, nil-ness and other value is still
// compared exactly, so an int64 that comes back as a float64 fails. Struct
// fields are compared whether exported or not, so a decoded object can be
// compared with the one it was encoded from.
func SameDecode(a, b any) bool {
	return sameValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameValue(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || math.IsNaN(x) && math.IsNaN(y)
	case reflect.Interface, reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameValue(a.Elem(), b.Elem()))
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if !sameValue(it.Value(), b.MapIndex(it.Key())) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	default: // complex numbers, funcs, channels: no codec carries them
		return false
	}
}

// Codec is one frame's encoder and decoder behind any, with a valid
// sample and its frame.
type Codec struct {
	Name   string
	Frame  []byte
	Sample any
	// Unordered marks an encoding that follows map iteration order:
	// re-encoding a decoded sample may give other bytes.
	Unordered bool
	Encode    func(any) ([]byte, error)
	Decode    func([]byte) (any, error)
}

// Of builds a Codec from typed functions, with sample's encoding as its
// frame.
func Of[T any](name string, sample T, enc func(T) ([]byte, error), dec func([]byte) (T, error)) Codec {
	frame, err := enc(sample)
	if err != nil {
		panic(err)
	}
	return Codec{
		Name: name, Frame: frame, Sample: sample,
		Encode: func(v any) ([]byte, error) { return enc(v.(T)) },
		Decode: func(b []byte) (any, error) {
			v, err := dec(b)
			return v, err
		},
	}
}

// Infallible adapts an encoder that cannot fail.
func Infallible[T any](enc func(T) []byte) func(T) ([]byte, error) {
	return func(v T) ([]byte, error) { return enc(v), nil }
}

// CheckFrames checks the rules every frame decoder keeps. The sample
// decodes from a copy of its frame that is then overwritten, and still
// compares equal to the sample: a decoder that aliased its input (a
// recycled rpc buffer, a lease response) would return the overwrite. The
// decoded sample re-encodes to the same bytes, or, when Unordered, to a
// frame that decodes the same. Every proper prefix of the frame, the frame
// plus one byte and every other codec's frame are errors.
func CheckFrames(t testing.TB, codecs []Codec) {
	t.Helper()
	for _, c := range codecs {
		buf := bytes.Clone(c.Frame)
		got, err := c.Decode(buf)
		for i := range buf {
			buf[i] = 0xff
		}
		if err != nil || !SameDecode(got, c.Sample) {
			t.Fatalf("%s: decoded %#v (err %v) once its input was overwritten, want %#v", c.Name, got, err, c.Sample)
		}
		re, err := c.Encode(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", c.Name, err)
		}
		if c.Unordered {
			if again, err := c.Decode(re); err != nil || !SameDecode(again, c.Sample) {
				t.Errorf("%s: re-encoded frame decoded %#v (err %v)", c.Name, again, err)
			}
		} else if !bytes.Equal(re, c.Frame) {
			t.Errorf("%s: re-encoded to %x, want %x", c.Name, re, c.Frame)
		}
		for i := 0; i < len(c.Frame); i++ {
			if _, err := c.Decode(c.Frame[:i]); err == nil {
				t.Errorf("%s: %d-byte prefix of a %d-byte frame decoded", c.Name, i, len(c.Frame))
			}
		}
		if _, err := c.Decode(append(bytes.Clone(c.Frame), 0)); err == nil {
			t.Errorf("%s: frame with a trailing byte decoded", c.Name)
		}
		for _, other := range codecs {
			if _, err := c.Decode(other.Frame); err == nil && other.Name != c.Name {
				t.Errorf("%s decoder accepted a %s frame", c.Name, other.Name)
			}
		}
	}
}

// FuzzFrames seeds f with every codec's frame, its last byte cut and one
// byte appended, plus extra, and throws the fuzzed bytes at every decoder.
// Any outcome is acceptable except a panic or a runaway allocation; a
// frame that decodes must re-encode to one that decodes the same.
func FuzzFrames(f *testing.F, codecs []Codec, extra ...[]byte) {
	for _, c := range codecs {
		f.Add(c.Frame)
		f.Add(c.Frame[:len(c.Frame)-1])
		f.Add(append(bytes.Clone(c.Frame), 0))
	}
	f.Add([]byte{})
	for _, b := range extra {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			msg, err := c.Decode(data)
			if err != nil {
				continue
			}
			re, err := c.Encode(msg)
			if err != nil {
				continue // a gob-fallback value need not re-encode
			}
			again, err := c.Decode(re)
			if err != nil {
				t.Fatalf("%s: re-decode of re-encoded frame: %v", c.Name, err)
			}
			if !SameDecode(msg, again) {
				t.Fatalf("%s: re-encode not stable:\n 1: %#v\n 2: %#v", c.Name, msg, again)
			}
		}
	})
}
