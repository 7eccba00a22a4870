package crucial

import (
	"context"
	"fmt"

	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/statefun"
)

// User-defined shared objects (the @Shared annotation of the paper).
//
// A custom type has two halves:
//
//   - A server-side implementation of ServerObject (plus Snapshotter if it
//     should be replicable/rebalanceable), registered under a type name in
//     the registry passed to the runtime. This is the analog of uploading
//     the jar with the object code to the DSO servers.
//   - A client-side proxy: either the generic Shared handle below, or a
//     typed wrapper struct embedding a Handle (see the k-means example's
//     GlobalCentroids).

// ServerObject is the server-side contract of a shared object: Call runs
// under the object's monitor on its owning node.
type ServerObject = core.Object

// Ctl is the monitor handle passed to ServerObject.Call; blocking methods
// use Wait/Broadcast (Java wait()/notify() semantics).
type Ctl = core.Ctl

// Snapshotter enables replication and rebalancing for a user object.
type Snapshotter = core.Snapshotter

// TypeRegistry maps type names to server-side factories.
type TypeRegistry = core.Registry

// ObjectType describes one registered shared-object type.
type ObjectType = core.TypeInfo

// Factory builds a server-side object from Init arguments.
type Factory = core.Factory

// NewTypeRegistry returns a registry preloaded with the built-in object
// library; register application types on it and pass it to the runtime
// options.
func NewTypeRegistry() *TypeRegistry {
	r := objects.BuiltinRegistry()
	statefun.RegisterTypes(r)
	return r
}

// RegisterValue registers a concrete Go type for transport inside shared
// object arguments, results, and Runnable fields — the moral equivalent of
// implementing Serializable.
func RegisterValue(v any) {
	core.RegisterValue(v)
}

// RegisterReadOnlyMethods declares methods of a registered shared-object
// type as read-only, making them eligible for the lease-based read path:
// client-cached execution, follower reads, and the primary's local-read
// fast path (Options.LeaseTTL, DESIGN.md §5d). Declare them where the type
// itself is registered. The contract is strict — a read-only method must
// not mutate any object state, must not block (no Ctl.Wait), and must be
// deterministic given the state; servers re-validate the classification,
// so a wrong declaration costs performance, never correctness of writes,
// but a method that mutates despite being declared read-only will corrupt
// cached copies. The built-in library's read-only methods (Get, Size,
// Contains, ...) are pre-declared.
func RegisterReadOnlyMethods(typeName string, methods ...string) {
	core.RegisterReadOnlyMethods(typeName, methods...)
}

// Shared is the generic client proxy for a user-defined shared object.
type Shared struct {
	H Handle // H is the underlying object handle (ref + client binding).
}

// NewShared builds a proxy for the object (typeName, key). init arguments
// are applied on first access.
func NewShared(typeName, key string, init []any, opts ...Option) *Shared {
	if len(init) > 0 {
		opts = append(opts, withInit(init...))
	}
	return &Shared{H: NewHandle(typeName, key, opts...)}
}

// Invoke ships one method invocation to the object and returns its raw
// results. It is the root of the call surface; the CallN helpers below add
// arity-typed results on top of it.
func (s *Shared) Invoke(ctx context.Context, method string, args ...any) ([]any, error) {
	return s.H.Invoke(ctx, method, args...)
}

// Call0 ships a method invocation that returns no results (or whose
// results the caller discards).
func Call0(ctx context.Context, s *Shared, method string, args ...any) error {
	_, err := s.H.Invoke(ctx, method, args...)
	return err
}

// Call1 ships a method invocation and returns its single typed result.
func Call1[T any](ctx context.Context, s *Shared, method string, args ...any) (T, error) {
	return result0[T](s.H.Invoke(ctx, method, args...))
}

// Call2 ships a method invocation and returns its two typed results.
func Call2[T1, T2 any](ctx context.Context, s *Shared, method string, args ...any) (T1, T2, error) {
	var zero1 T1
	var zero2 T2
	res, err := s.H.Invoke(ctx, method, args...)
	if err != nil {
		return zero1, zero2, err
	}
	if len(res) < 2 {
		return zero1, zero2, fmt.Errorf("crucial: %s returned %d results, want 2", method, len(res))
	}
	v1, ok := res[0].(T1)
	if !ok {
		return zero1, zero2, fmt.Errorf("crucial: result 0 has type %T, want %T", res[0], zero1)
	}
	v2, ok := res[1].(T2)
	if !ok {
		return zero1, zero2, fmt.Errorf("crucial: result 1 has type %T, want %T", res[1], zero2)
	}
	return v1, v2, nil
}
