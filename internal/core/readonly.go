package core

import (
	"sort"
	"sync"
)

// Read/write method classification.
//
// The DSO layer ships every method call to the object's owner, which is
// correct but wasteful for reads: a read-only method cannot change object
// state, so it may be answered from a client's cached copy kept fresh by
// a lease (the client lease cache) without a round trip, or from the
// primary's own copy without an ordering round.
//
// Classification is declarative: the code that registers an object type
// also declares which of its methods are read-only, at the same place and
// time (RegisterValueTypes / bind time). The contract for a method declared
// read-only is strict:
//
//   - it must not mutate any object state (including memoization caches),
//   - it must not block (no Ctl.Wait) — cached execution has no monitor
//     to sleep on,
//   - it must be deterministic given the object state (no randomness).
//
// Servers re-validate the classification against their own registry before
// trusting the wire flag, so a stale or hostile client cannot smuggle a
// mutating call through a read-only code path.

var (
	readOnlyMu      sync.RWMutex
	readOnlyMethods = make(map[string]map[string]bool)
)

// RegisterReadOnlyMethods declares methods of the named object type as
// read-only (see the classification contract above). It is additive and
// idempotent: repeated registrations union their method sets. Like the
// value-type registrations it is meant to run during process wiring,
// before traffic, but it is safe for concurrent use.
func RegisterReadOnlyMethods(typeName string, methods ...string) {
	if typeName == "" || len(methods) == 0 {
		return
	}
	readOnlyMu.Lock()
	defer readOnlyMu.Unlock()
	set := readOnlyMethods[typeName]
	if set == nil {
		set = make(map[string]bool, len(methods))
		readOnlyMethods[typeName] = set
	}
	for _, m := range methods {
		if m != "" {
			set[m] = true
		}
	}
}

// IsReadOnlyMethod reports whether the method of the named type was
// declared read-only. Unknown types and unregistered methods report false:
// unclassified methods are conservatively treated as writes.
func IsReadOnlyMethod(typeName, method string) bool {
	readOnlyMu.RLock()
	defer readOnlyMu.RUnlock()
	return readOnlyMethods[typeName][method]
}

// ReadOnlyMethodsOf returns the sorted read-only method names declared for
// the type (introspection and tests); nil when none are registered.
func ReadOnlyMethodsOf(typeName string) []string {
	readOnlyMu.RLock()
	defer readOnlyMu.RUnlock()
	set := readOnlyMethods[typeName]
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
