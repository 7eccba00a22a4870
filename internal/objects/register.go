package objects

import "crucial/internal/core"

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
