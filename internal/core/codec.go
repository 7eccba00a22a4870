package core

import (
	"encoding/gob"
	"fmt"
	"sync"
)

// The invocation wire format is the fast tag codec of wire.go, with
// encoding/gob as the per-value fallback for user-registered types. Because
// Invocation.Args is []any, every concrete argument type outside the
// built-in tag set must be registered with gob before it crosses the
// wire. RegisterValueTypes installs the common set; user-defined shared
// objects register their own argument types the same way they would make
// them Serializable in the paper's Java prototype.

var registerOnce sync.Once

// RegisterValueTypes registers the standard argument/result types used by
// the built-in object library. It is idempotent and safe for concurrent
// use; every package that encodes invocations calls it defensively.
func RegisterValueTypes() {
	registerOnce.Do(func() {
		gob.Register(int(0))
		gob.Register(int32(0))
		gob.Register(int64(0))
		gob.Register(uint64(0))
		gob.Register(float32(0))
		gob.Register(float64(0))
		gob.Register(false)
		gob.Register("")
		gob.Register([]byte(nil))
		gob.Register([]int(nil))
		gob.Register([]int64(nil))
		gob.Register([]float64(nil))
		gob.Register([][]float64(nil))
		gob.Register([]string(nil))
		gob.Register([]any(nil))
		gob.Register(map[string]any(nil))
		gob.Register(map[string]string(nil))
		gob.Register(map[string]float64(nil))
		gob.Register(map[string]int64(nil))
	})
}

// RegisterValue registers one additional concrete type for transport inside
// invocation arguments and results, mirroring gob.Register but routed
// through core so call sites do not import encoding/gob directly.
func RegisterValue(v any) {
	gob.Register(v)
}

// EncodeInvocation serializes an invocation in the fast tag format (see
// wire.go) into a buffer sized once (InvocationSize). Hot paths that reuse
// buffers call AppendInvocation directly.
func EncodeInvocation(inv Invocation) ([]byte, error) {
	return AppendInvocation(make([]byte, 0, InvocationSize(inv)), inv)
}

// DecodeInvocation parses an invocation produced by EncodeInvocation. data
// must be exactly one frame: one without the magic, with an unknown
// version or with bytes after the last field is an error.
func DecodeInvocation(data []byte) (Invocation, error) {
	return decodeInvocation(data, Ref{}, false)
}

// DecodeInvocationOn is DecodeInvocation for a server, which decodes an
// invocation expected on ref while data lives. When its encoded type and
// key are ref's, the result shares ref's strings instead of fresh copies
// of them; an invocation on another ref decodes as DecodeInvocation
// decodes it, and the caller tells the two apart by comparing Refs. Its
// Init list, which only the call that creates the object reads, stays
// encoded in data (checked, but for the content of a gob-fallback value):
// InitValues decodes it, and AppendInvocation copies it, both only while
// data lives (Owned detaches it). Every other field is a copy.
func DecodeInvocationOn(data []byte, ref Ref) (Invocation, error) {
	return decodeInvocation(data, ref, true)
}

// InvocationRef reads, in place, the ref an encoded invocation names: its
// type as a shared name (Reader.Name) and its key's bytes, which alias
// data. A server finds its record for the ref by them without allocating,
// then decodes the invocation against the record's ref
// (DecodeInvocationOn).
func InvocationRef(data []byte) (typ string, key []byte, err error) {
	r := Reader{b: data}
	if err = r.preamble(wireInvocation); err == nil {
		if typ, err = r.Name(); err == nil {
			key, err = r.BytesView()
		}
	}
	return typ, key, err
}

func decodeInvocation(data []byte, ref Ref, lazyInit bool) (Invocation, error) {
	RegisterValueTypes()
	inv, err := decodeWireInvocation(data, ref, lazyInit)
	if err == nil {
		if inv.Stamped() {
			codecStats.stampedDecodes.Add(1)
		} else {
			codecStats.unstampedDecodes.Add(1)
		}
	}
	return inv, err
}

// EncodeResponse serializes a response in the fast tag format.
func EncodeResponse(resp Response) ([]byte, error) {
	RegisterValueTypes()
	return AppendResponse(nil, resp)
}

// DecodeResponse parses a response produced by EncodeResponse, under the
// same exact-frame rule as DecodeInvocation.
func DecodeResponse(data []byte) (Response, error) {
	RegisterValueTypes()
	return decodeWireResponse(data)
}

// EncodeValue gob-encodes a single value: user bodies (the state of user
// Snapshotters, stateful-function message and state bodies) and cold-path
// control-plane messages. The result is always a complete single-value gob
// stream, but a type's descriptors are built once per process (gobcache.go):
// a warm encode writes only the value message. Per-operation frames and the
// built-in objects' state bodies use the tag helpers of wire.go instead.
func EncodeValue(v any) ([]byte, error) {
	RegisterValueTypes()
	b, err := encodeGob(v)
	if err != nil {
		return nil, fmt.Errorf("core: encode value: %w", err)
	}
	return b, nil
}

// DecodeValue gob-decodes into v, which must be a pointer. A stream whose
// descriptors were seen before is decoded by a decoder that has already
// compiled them (gobcache.go).
func DecodeValue(data []byte, v any) error {
	RegisterValueTypes()
	if err := decodeGob(data, v); err != nil {
		return fmt.Errorf("core: decode value: %w", err)
	}
	return nil
}

// Arg extracts args[i] as type T, with a descriptive error when the index
// or dynamic type does not match. Object implementations use it to unpack
// their arguments uniformly.
func Arg[T any](args []any, i int) (T, error) {
	var zero T
	if i < 0 || i >= len(args) {
		return zero, fmt.Errorf("core: argument %d missing (have %d)", i, len(args))
	}
	v, ok := args[i].(T)
	if !ok {
		return zero, fmt.Errorf("core: argument %d has type %T, want %T", i, args[i], zero)
	}
	return v, nil
}

// OptArg extracts args[i] as T if present, otherwise returns def.
func OptArg[T any](args []any, i int, def T) (T, error) {
	if i < 0 || i >= len(args) || args[i] == nil {
		return def, nil
	}
	v, ok := args[i].(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("core: argument %d has type %T, want %T", i, args[i], zero)
	}
	return v, nil
}

// NumberAsInt64 coerces the numeric types that may arrive inside an any
// argument to int64. gob preserves concrete types, but user code may pass
// int where int64 is expected; the object library accepts both.
func NumberAsInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	case uint64:
		return int64(n), true
	case float64:
		return int64(n), true
	case float32:
		return int64(n), true
	default:
		return 0, false
	}
}

// Int64Arg extracts args[i] as an int64 accepting any integer-like type.
func Int64Arg(args []any, i int) (int64, error) {
	if i < 0 || i >= len(args) {
		return 0, fmt.Errorf("core: argument %d missing (have %d)", i, len(args))
	}
	n, ok := NumberAsInt64(args[i])
	if !ok {
		return 0, fmt.Errorf("core: argument %d has type %T, want integer", i, args[i])
	}
	return n, nil
}
