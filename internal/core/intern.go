package core

import (
	"sync"
	"sync/atomic"
)

// Names — object type names, method names, node ids — come from a small,
// fixed vocabulary but arrive in every frame. Reader.Name hands out one
// shared copy of each instead of a fresh string per decode. The table is
// bounded in entries and in name length, so a peer sending ever-new names
// costs a fresh string per name past the bound and never more memory.
// Object keys are not names: a workload can have millions of them, and
// they go through Reader.Str.
const (
	maxInternedNames   = 1024
	maxInternedNameLen = 64
)

// interned is the table: an immutable map behind an atomic pointer, so a
// lookup takes no lock, and m[string(b)] does not allocate. internMu
// serializes the copy-on-write that adds a name. It is process-wide, like a
// sync.Pool: what it holds never changes what a decode returns, only
// whether two decodes share memory.
var (
	interned atomic.Pointer[map[string]string]
	internMu sync.Mutex
)

// intern returns the shared copy of the name b, adding it while the table
// has room; past the bounds it returns a fresh string.
func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternedNameLen {
		return string(b)
	}
	m := internedNames()
	if s, ok := m[string(b)]; ok {
		return s
	}
	if len(m) >= maxInternedNames {
		return string(b) // full: no lock for a name that cannot be added
	}
	s := string(b)
	internMu.Lock()
	defer internMu.Unlock()
	cur := internedNames()
	if have, ok := cur[s]; ok {
		return have
	}
	if len(cur) >= maxInternedNames {
		return s
	}
	next := make(map[string]string, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[s] = s
	interned.Store(&next)
	return s
}

// internedNames returns the current table (nil before the first name).
func internedNames() map[string]string {
	if m := interned.Load(); m != nil {
		return *m
	}
	return nil
}

// Name reads a length-prefixed string (AppendString) that names something
// — a type, a method, a node — and returns the shared copy of it
// (intern). Like Str, the result does not alias the input.
func (r *Reader) Name() (string, error) {
	b, err := r.BytesView()
	if err != nil {
		return "", err
	}
	return intern(b), nil
}
