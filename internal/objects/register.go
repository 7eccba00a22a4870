package objects

import (
	"fmt"

	"crucial/internal/core"
)

// Wire type names of the built-in library. The paper exposes AtomicInt and
// AtomicLong separately (Table 1); both map to AtomicInt64 here.
const (
	TypeAtomicInt         = "AtomicInt"
	TypeAtomicLong        = "AtomicLong"
	TypeAtomicBoolean     = "AtomicBoolean"
	TypeAtomicReference   = "AtomicReference"
	TypeAtomicByteArray   = "AtomicByteArray"
	TypeAtomicDoubleArray = "AtomicDoubleArray"
	TypeDoubleAdder       = "DoubleAdder"
	TypeList              = "List"
	TypeMap               = "Map"
	TypeKV                = "KV"
	TypeCyclicBarrier     = "CyclicBarrier"
	TypeSemaphore         = "Semaphore"
	TypeFuture            = "Future"
	TypeCountDownLatch    = "CountDownLatch"
)

// State body tags (DESIGN.md §5b "State bodies"). Every built-in data
// object's Snapshot is one tag byte naming its type, then its fields in
// the tag codec's encodings (core.Append*); its Restore accepts exactly
// that layout — a wrong tag, a truncated body or a trailing byte is an
// error — and copies what it keeps, so a restored object never aliases
// the buffer it was decoded from (a lease response, a transfer frame).
// There is no version: a body written by another layout does not decode.
const (
	stateInt64       byte = 'i' // AtomicInt64: value (varint)
	stateBool        byte = 'b' // AtomicBoolean: value (bool byte)
	stateReference   byte = 'r' // AtomicReference: one tagged value
	stateByteArray   byte = 'y' // AtomicByteArray: bytes
	stateList        byte = 'L' // List: value list
	stateMap         byte = 'M' // Map: count, then key string + tagged value per entry
	stateKV          byte = 'K' // KV: set (bool byte), bytes
	stateAdder       byte = 'D' // DoubleAdder: sum (8 bytes), count (varint)
	stateDoubleArray byte = 'd' // AtomicDoubleArray: float64 list
)

// restoreErr wraps a state body decode failure.
func restoreErr(typ string, err error) error {
	return fmt.Errorf("objects: restore %s: %w", typ, err)
}

// RegisterBuiltins installs the shared object library into a registry.
// Server nodes call it at startup; applications then add their own
// user-defined types on top (the @Shared analog). It also declares the
// library's read-only methods (core.RegisterReadOnlyMethods) so the lease
// cache and the primary's local-read path can serve them without an
// ordering round. Only methods that neither mutate state nor block qualify; note the
// near-misses that do NOT: GetAndAdd and GetAndSet write, SumThenReset
// resets, PutIfAbsent inserts.
func RegisterBuiltins(r *core.Registry) {
	registerBuiltinReadOnly()
	r.MustRegister(core.TypeInfo{Name: TypeAtomicInt, New: NewAtomicInt64})
	r.MustRegister(core.TypeInfo{Name: TypeAtomicLong, New: NewAtomicInt64})
	r.MustRegister(core.TypeInfo{Name: TypeAtomicBoolean, New: NewAtomicBoolean})
	r.MustRegister(core.TypeInfo{Name: TypeAtomicReference, New: NewAtomicReference})
	r.MustRegister(core.TypeInfo{Name: TypeAtomicByteArray, New: NewAtomicByteArray})
	r.MustRegister(core.TypeInfo{Name: TypeAtomicDoubleArray, New: NewAtomicDoubleArray})
	r.MustRegister(core.TypeInfo{Name: TypeDoubleAdder, New: NewDoubleAdder})
	r.MustRegister(core.TypeInfo{Name: TypeList, New: NewList})
	r.MustRegister(core.TypeInfo{Name: TypeMap, New: NewMap})
	r.MustRegister(core.TypeInfo{Name: TypeKV, New: NewKV})
	r.MustRegister(core.TypeInfo{Name: TypeCyclicBarrier, New: NewCyclicBarrier, Synchronization: true})
	r.MustRegister(core.TypeInfo{Name: TypeSemaphore, New: NewSemaphore, Synchronization: true})
	r.MustRegister(core.TypeInfo{Name: TypeFuture, New: NewFuture, Synchronization: true})
	r.MustRegister(core.TypeInfo{Name: TypeCountDownLatch, New: NewCountDownLatch, Synchronization: true})
}

// registerBuiltinReadOnly declares the read-only subset of the library
// methods. core.RegisterReadOnlyMethods is idempotent, so calling
// RegisterBuiltins for several registries re-declares harmlessly.
func registerBuiltinReadOnly() {
	for _, t := range []string{TypeAtomicInt, TypeAtomicLong} {
		core.RegisterReadOnlyMethods(t, "Get")
	}
	core.RegisterReadOnlyMethods(TypeAtomicBoolean, "Get")
	core.RegisterReadOnlyMethods(TypeAtomicReference, "Get", "IsNil")
	core.RegisterReadOnlyMethods(TypeAtomicByteArray, "Length", "Get", "GetAll")
	core.RegisterReadOnlyMethods(TypeAtomicDoubleArray, "Length", "Get", "GetAll")
	core.RegisterReadOnlyMethods(TypeDoubleAdder, "Sum", "Count")
	core.RegisterReadOnlyMethods(TypeList, "Get", "Size", "GetAll", "Contains")
	core.RegisterReadOnlyMethods(TypeMap, "Get", "ContainsKey", "Size", "Keys")
	core.RegisterReadOnlyMethods(TypeKV, "Get", "Exists")
}

// BuiltinRegistry returns a fresh registry preloaded with the library.
func BuiltinRegistry() *core.Registry {
	r := core.NewRegistry()
	RegisterBuiltins(r)
	return r
}
