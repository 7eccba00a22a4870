package core

import (
	"bytes"
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
// wire.go). Hot paths that reuse buffers call AppendInvocation directly.
func EncodeInvocation(inv Invocation) ([]byte, error) {
	RegisterValueTypes()
	return AppendInvocation(nil, inv)
}

// DecodeInvocation parses an invocation produced by EncodeInvocation. data
// must be exactly one frame: one without the magic, with an unknown
// version or with bytes after the last field is an error.
func DecodeInvocation(data []byte) (Invocation, error) {
	RegisterValueTypes()
	inv, err := decodeWireInvocation(data)
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
// control-plane messages. Every call opens a fresh gob stream, so it
// re-sends and re-compiles its type descriptors: per-operation frames and
// the built-in objects' state bodies use the tag helpers of wire.go
// instead.
func EncodeValue(v any) ([]byte, error) {
	RegisterValueTypes()
	codecStats.gobStreams.Add(1)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("core: encode value: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeValue gob-decodes into v, which must be a pointer.
func DecodeValue(data []byte, v any) error {
	RegisterValueTypes()
	codecStats.gobStreams.Add(1)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
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
