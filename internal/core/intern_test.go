package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// The name table stops growing at its cap; a name past the cap, or longer
// than the length bound, still decodes equal, as a fresh string.
func TestInternTableBounded(t *testing.T) {
	saved := interned.Load()
	t.Cleanup(func() { interned.Store(saved) })
	interned.Store(nil)

	decode := func(name string) string {
		r := Reader{b: AppendString(nil, name)}
		got, err := r.Name()
		if err != nil {
			t.Fatal(err)
		}
		if got != name {
			t.Fatalf("Name decoded %q as %q", name, got)
		}
		return got
	}
	first := decode("AtomicLong")
	if again := decode("AtomicLong"); unsafe.StringData(again) != unsafe.StringData(first) {
		t.Fatal("a known name decoded to a new copy")
	}
	for i := 0; len(internedNames()) < maxInternedNames; i++ {
		decode("method-" + strconv.Itoa(i))
	}
	for i := 0; i < 100; i++ {
		decode("past-cap-" + strconv.Itoa(i))
	}
	if n := len(internedNames()); n != maxInternedNames {
		t.Fatalf("table holds %d names, cap %d", n, maxInternedNames)
	}
	past := decode("past-cap-0")
	if again := decode("past-cap-0"); unsafe.StringData(again) == unsafe.StringData(past) {
		t.Fatal("a name past the cap was interned")
	}
	long := strings.Repeat("x", maxInternedNameLen+1)
	interned.Store(nil)
	decode(long)
	if n := len(internedNames()); n != 0 {
		t.Fatalf("a %d-byte name was interned", len(long))
	}
	if got := decode(""); got != "" {
		t.Fatalf("empty name decoded as %q", got)
	}
}

// A decoded invocation's type and method are the table's copies, its key a
// fresh one: keys are never interned.
func TestDecodeInvocationInternsNamesNotKeys(t *testing.T) {
	inv := benchInvocation()
	data, err := EncodeInvocation(inv)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.Ref.Type) != unsafe.StringData(b.Ref.Type) ||
		unsafe.StringData(a.Method) != unsafe.StringData(b.Method) {
		t.Fatal("type or method decoded to a fresh copy")
	}
	if unsafe.StringData(a.Ref.Key) == unsafe.StringData(b.Ref.Key) {
		t.Fatal("the key was interned")
	}
}

// EncodeInvocation sizes its buffer once: InvocationSize bounds what the
// tag codec writes for the built-in argument types.
func TestEncodeInvocationSizedOnce(t *testing.T) {
	invs := []Invocation{
		benchInvocation(),
		{Ref: Ref{Type: "KV", Key: "k"}, Method: "Put", Args: []any{make([]byte, 300)}, ClientID: 1<<64 - 1, Seq: 1<<64 - 1},
		{Ref: Ref{Type: "List", Key: "l"}, Method: "AddAll", Args: []any{[]string{"a", "bb"}, []int{-1 << 62, 3}, []int64{1}, int32(-5), uint64(1 << 63), float32(1), true, nil}},
		{Ref: Ref{Type: "T", Key: "x"}, Method: "M", Init: []any{int64(-1 << 63)}},
	}
	for _, inv := range invs {
		data, err := EncodeInvocation(inv)
		if err != nil {
			t.Fatal(err)
		}
		if size := InvocationSize(inv); len(data) > size {
			t.Fatalf("%s.%s encodes to %d bytes, InvocationSize says at most %d", inv.Ref, inv.Method, len(data), size)
		}
		if raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(50, func() { _, _ = EncodeInvocation(inv) }); got != 1 {
			t.Fatalf("EncodeInvocation(%s.%s) allocates %.0f, want 1", inv.Ref, inv.Method, got)
		}
	}
}

// DecodeFrame inlines, so its Reader stays on the stack: decoding a frame
// of fixed-size fields allocates nothing.
func TestDecodeFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	type pair struct{ a, b int64 }
	data := AppendVarint(AppendVarint([]byte{'p'}, 7), -3)
	read := func(r *Reader) (p pair, err error) {
		if p.a, err = r.Varint(); err == nil {
			p.b, err = r.Varint()
		}
		return p, err
	}
	got := testing.AllocsPerRun(100, func() {
		if p, err := DecodeFrame(data, 'p', read); err != nil || p != (pair{7, -3}) {
			t.Fatalf("decoded %v, %v", p, err)
		}
	})
	if got != 0 {
		t.Fatalf("DecodeFrame allocates %.0f", got)
	}
}

// Decoders on many goroutines read and grow the table at once (run under
// -race): every name decodes equal, and each one the table holds is one
// shared copy.
func TestInternConcurrentDecoders(t *testing.T) {
	saved := interned.Load()
	t.Cleanup(func() { interned.Store(saved) })
	interned.Store(nil)

	const workers, names = 8, 300
	var wg sync.WaitGroup
	got := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := "m" + strconv.Itoa((i*7+w)%names)
				r := Reader{b: AppendString(nil, name)}
				s, err := r.Name()
				if err != nil || s != name {
					t.Errorf("decoded %q as %q, %v", name, s, err)
					return
				}
				got[w] = append(got[w], s)
			}
		}(w)
	}
	wg.Wait()
	table := internedNames()
	if len(table) != names {
		t.Fatalf("table holds %d names, want %d", len(table), names)
	}
	for _, ss := range got {
		for _, s := range ss {
			if unsafe.StringData(table[s]) != unsafe.StringData(s) {
				t.Fatalf("%q decoded to a copy the table does not hold", s)
			}
		}
	}
}
