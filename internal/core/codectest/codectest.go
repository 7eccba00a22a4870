// Package codectest holds the comparison rule shared by the wire-codec
// fuzzers of every package that decodes frames: a decoded message must
// survive re-encoding with every dynamic type, nil-ness and value intact.
package codectest

import (
	"math"
	"reflect"
)

// SameDecode is reflect.DeepEqual except that a NaN equals a NaN. Floats
// cross the wire bit for bit, so a NaN decodes to a NaN, but it never
// DeepEquals itself. Every dynamic type, nil-ness and other value is still
// compared exactly, so an int64 that comes back as a float64 fails. Struct
// fields must be exported.
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
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}
