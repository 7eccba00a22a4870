// Package core defines the vocabulary shared by every layer of the DSO
// (distributed shared objects) system: object references, the invocation
// wire format, the server-side object contract, and the type registry used
// to instantiate objects on the nodes that own them.
//
// The package is dependency-free (stdlib only) so that clients, servers and
// the replication machinery can all build on it without cycles.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Ref uniquely identifies a shared object in the DSO layer. Following the
// paper (Section 4.1), a reference is the pair (type, key): the key is
// either derived from the field name of the encompassing object or supplied
// explicitly (the `@Shared(key=k)` analog).
type Ref struct {
	Type string
	Key  string
}

// String renders the reference as "Type[Key]". It is used in error messages
// and as the hashing input for object placement.
func (r Ref) String() string { return r.Type + "[" + r.Key + "]" }

// IsZero reports whether the reference is unset.
func (r Ref) IsZero() bool { return r.Type == "" && r.Key == "" }

// Invocation is one remote method call shipped to the node(s) owning an
// object. Args carry the method arguments; Init carries constructor
// arguments used only if the object does not exist yet, so that any replica
// can materialize the object deterministically on first access.
type Invocation struct {
	Ref    Ref
	Method string
	Args   []any
	Init   []any
	// Persist requests durability: the object is replicated with the
	// cluster's replication factor and survives node failures.
	Persist bool
	// Trace carries the caller's span identity so the serving node can
	// attach its server-side spans to the client's trace. The zero value
	// (no telemetry) is ignored.
	Trace TraceContext
	// ClientID and Seq stamp the invocation for at-most-once execution
	// under client retries: servers keep a bounded per-client window of
	// (Seq -> response) per object and replay the cached response when a
	// retry re-delivers an already-applied invocation. ClientID zero marks
	// an unstamped invocation (control-plane tools); those execute
	// without dedup, with at-least-once retry semantics.
	ClientID uint64
	Seq      uint64
	// ReadOnly marks the method as declared read-only (see
	// RegisterReadOnlyMethods). Read-only invocations may be served from a
	// leased client cache or from the primary's copy without a round, skip
	// the at-most-once
	// dedup window (re-executing a read is harmless and must not evict
	// write records).
	// Servers re-validate the flag against their own registry before
	// trusting it. Old frames decode with the flag unset — every call is
	// conservatively a write.
	ReadOnly bool

	// initWire is a non-empty Init list left encoded by DecodeInvocationOn:
	// it aliases the decoded frame, and Init is nil.
	initWire []byte
}

// Stamped reports whether the invocation carries an at-most-once stamp.
func (inv Invocation) Stamped() bool { return inv.ClientID != 0 }

// InitValues returns the invocation's Init list: Init, or, for an
// invocation from DecodeInvocationOn, the list decoded now from its frame,
// into values that do not alias it.
func (inv Invocation) InitValues() ([]any, error) {
	if inv.initWire == nil {
		return inv.Init, nil
	}
	r := Reader{b: inv.initWire}
	vs, err := r.Values()
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("core: decode invocation %s.%s init: %w", inv.Ref, inv.Method, err)
	}
	return vs, nil
}

// Owned returns inv with nothing aliasing the frame it was decoded from,
// for a caller that keeps it past that frame's life: an Init list
// DecodeInvocationOn left encoded is copied.
func (inv Invocation) Owned() Invocation {
	if inv.initWire != nil {
		inv.initWire = bytes.Clone(inv.initWire)
	}
	return inv
}

// TraceContext is the wire form of a telemetry span context. It lives in
// core (rather than internal/telemetry) so the dependency-free vocabulary
// package stays self-contained; the telemetry layer converts at the edges.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context belongs to a live trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// Response carries the results of an invocation back to the caller.
type Response struct {
	Results []any
	// Err is the error text, empty on success. Errors cross the wire as
	// strings; sentinel errors below are recognised by prefix matching so
	// clients can retry intelligently.
	Err string
}

// Sentinel errors of the DSO layer. They travel as message prefixes in
// Response.Err and are re-materialized client side by DecodeError.
var (
	// ErrWrongNode indicates the contacted node does not own the object in
	// the current view; the client should refresh its view and retry.
	ErrWrongNode = errors.New("dso: object not owned by this node")
	// ErrUnknownType indicates no factory is registered for Ref.Type.
	ErrUnknownType = errors.New("dso: unknown object type")
	// ErrUnknownMethod indicates the object does not implement the method.
	ErrUnknownMethod = errors.New("dso: unknown method")
	// ErrStopped indicates the node is shutting down.
	ErrStopped = errors.New("dso: node stopped")
	// ErrRebalancing indicates the object is being transferred between
	// nodes; the client should back off and retry.
	ErrRebalancing = errors.New("dso: object rebalancing in progress")
	// ErrNoSuchObject is returned by operations that require an existing
	// object (e.g. explicit deletion) when it is absent.
	ErrNoSuchObject = errors.New("dso: no such object")
)

// sentinels lists the retryable/recognisable errors for DecodeError.
// Layers above core extend it via RegisterErrorSentinel.
var (
	sentinelMu sync.RWMutex
	sentinels  = []error{
		ErrWrongNode, ErrUnknownType, ErrUnknownMethod,
		ErrStopped, ErrRebalancing, ErrNoSuchObject,
	}
)

// RegisterErrorSentinel adds err to the set DecodeError re-materializes,
// so layers above core can define errors that survive the wire and keep
// working with errors.Is on the client side. Like the built-in sentinels,
// err is recognised by message prefix, so it must travel unwrapped (or
// wrapped with appended context only). Idempotent; call at init time,
// before the error can cross the wire.
func RegisterErrorSentinel(err error) {
	if err == nil {
		return
	}
	sentinelMu.Lock()
	defer sentinelMu.Unlock()
	for _, sent := range sentinels {
		if sent.Error() == err.Error() {
			return
		}
	}
	sentinels = append(sentinels, err)
}

// EncodeError turns an error into its wire representation.
func EncodeError(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// DecodeError turns a wire error string back into an error, mapping known
// sentinel texts back onto the sentinel values (wrapped with the full text)
// so errors.Is works across the wire.
func DecodeError(s string) error {
	if s == "" {
		return nil
	}
	sentinelMu.RLock()
	defer sentinelMu.RUnlock()
	for _, sent := range sentinels {
		if matchSentinel(s, sent.Error()) {
			if s == sent.Error() {
				return sent
			}
			return fmt.Errorf("%w: %s", sent, s[len(sent.Error()):])
		}
	}
	return errors.New(s)
}

func matchSentinel(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Ctl is handed to object method implementations and provides the
// monitor-style blocking primitives used by synchronization objects
// (Section 5 of the paper: Java wait()/notify() on the servers).
//
// Wait atomically releases the object's lock and suspends the invocation
// until cond() becomes true (re-checked after every Broadcast on the same
// object) or the invocation context is cancelled. Broadcast wakes all
// waiters of the object so they re-evaluate their conditions.
//
// Wait and Context are valid only during the Call that was handed the
// Ctl: a node hands every call on one object the same Ctl and sets the
// running call's context on it. Broadcast is valid at any time, also from
// a timer that fires after the call returned.
type Ctl interface {
	Wait(cond func() bool) error
	Broadcast()
	Context() context.Context
}

// Object is the server-side contract of a shared object. Implementations
// must confine all state mutation to Call: the owning node serializes calls
// per object (linearizability), so Call bodies need no extra locking except
// through ctl.Wait for blocking semantics.
type Object interface {
	Call(ctl Ctl, method string, args []any) ([]any, error)
}

// Finisher is implemented by synchronization objects that can be spent,
// like a Future its one consumer has taken. Once Finished reports true
// after a call, the owning node drops the object, and the next call on
// its key creates a fresh one.
type Finisher interface {
	Finished() bool
}

// Snapshotter is implemented by objects that support state transfer, which
// is required for replication (rf > 1) and for rebalancing on membership
// changes. The library objects all implement it.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// Factory materializes a fresh object from constructor arguments. It is
// invoked on the owning node the first time a reference is used (and on
// every replica, deterministically, for persistent objects).
type Factory func(init []any) (Object, error)

// TypeInfo describes one registered shared-object type.
type TypeInfo struct {
	// Name is the wire name of the type (Ref.Type).
	Name string
	// New builds an instance from Init arguments.
	New Factory
	// Synchronization marks blocking coordination objects (barriers,
	// semaphores, futures). Per the paper they are never replicated.
	Synchronization bool
}

// Registry maps type names to factories. A Registry is immutable once
// shared: register everything before starting servers. The zero value is
// unusable; use NewRegistry.
type Registry struct {
	types map[string]TypeInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]TypeInfo)}
}

// Register adds a type. It returns an error if the name is empty, the
// factory is nil, or the name is already taken.
func (r *Registry) Register(info TypeInfo) error {
	if info.Name == "" {
		return errors.New("core: type name must not be empty")
	}
	if info.New == nil {
		return fmt.Errorf("core: type %q has nil factory", info.Name)
	}
	if _, dup := r.types[info.Name]; dup {
		return fmt.Errorf("core: type %q already registered", info.Name)
	}
	r.types[info.Name] = info
	return nil
}

// MustRegister is Register that panics on error; intended for wiring code
// where a failure is a programming bug.
func (r *Registry) MustRegister(info TypeInfo) {
	if err := r.Register(info); err != nil {
		panic(err)
	}
}

// Lookup returns the TypeInfo for name.
func (r *Registry) Lookup(name string) (TypeInfo, error) {
	info, ok := r.types[name]
	if !ok {
		return TypeInfo{}, fmt.Errorf("%w: %q", ErrUnknownType, name)
	}
	return info, nil
}

// Types returns the registered type names (order unspecified).
func (r *Registry) Types() []string {
	names := make([]string, 0, len(r.types))
	for n := range r.types {
		names = append(names, n)
	}
	return names
}

// Invoker is the client-side capability to call methods on remote objects.
// The DSO client implements it; proxies hold one after binding.
type Invoker interface {
	InvokeObject(ctx context.Context, inv Invocation) ([]any, error)
}

// Bindable is implemented by client-side proxies that must be attached to a
// live DSO connection before use. The crucial runtime walks the fields of a
// decoded Runnable and binds every Bindable it finds — the Go analog of the
// paper's AspectJ weaving of @Shared fields.
type Bindable interface {
	BindDSO(inv Invoker)
}
