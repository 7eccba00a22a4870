package objects

import (
	"errors"
	"testing"
	"testing/quick"

	"crucial/internal/core"
)

func mustNew(t *testing.T, f core.Factory, init ...any) core.Object {
	t.Helper()
	obj, err := f(init)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// call invokes a method through the monitor and returns its first result as
// type T, failing the test on error or type mismatch.
func call[T any](t *testing.T, m *testMonitor, obj core.Object, method string, args ...any) T {
	t.Helper()
	res, err := m.Call(obj, method, args...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 1 {
		t.Fatalf("%s returned no results", method)
	}
	v, ok := res[0].(T)
	if !ok {
		var zero T
		t.Fatalf("%s result type %T, want %T", method, res[0], zero)
	}
	return v
}

func TestAtomicInt64Basics(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64)

	if got := call[int64](t, m, a, "Get"); got != 0 {
		t.Fatalf("initial Get = %d", got)
	}
	if _, err := m.Call(a, "Set", int64(10)); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, a, "AddAndGet", int64(5)); got != 15 {
		t.Fatalf("AddAndGet = %d, want 15", got)
	}
	if got := call[int64](t, m, a, "GetAndAdd", int64(5)); got != 15 {
		t.Fatalf("GetAndAdd returned %d, want old value 15", got)
	}
	if got := call[int64](t, m, a, "Get"); got != 20 {
		t.Fatalf("Get after GetAndAdd = %d, want 20", got)
	}
	if got := call[int64](t, m, a, "IncrementAndGet"); got != 21 {
		t.Fatalf("IncrementAndGet = %d", got)
	}
	if got := call[int64](t, m, a, "DecrementAndGet"); got != 20 {
		t.Fatalf("DecrementAndGet = %d", got)
	}
	if got := call[int64](t, m, a, "GetAndSet", int64(100)); got != 20 {
		t.Fatalf("GetAndSet returned %d", got)
	}
}

func TestAtomicInt64InitialValue(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64, int64(42))
	if got := call[int64](t, m, a, "Get"); got != 42 {
		t.Fatalf("initial value = %d, want 42", got)
	}
}

func TestAtomicInt64CompareAndSet(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64, int64(5))
	if ok := call[bool](t, m, a, "CompareAndSet", int64(5), int64(9)); !ok {
		t.Fatal("CAS with matching expect failed")
	}
	if ok := call[bool](t, m, a, "CompareAndSet", int64(5), int64(1)); ok {
		t.Fatal("CAS with stale expect succeeded")
	}
	if got := call[int64](t, m, a, "Get"); got != 9 {
		t.Fatalf("value after CAS = %d, want 9", got)
	}
}

func TestAtomicInt64AcceptsPlainInt(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64)
	if got := call[int64](t, m, a, "AddAndGet", 7); got != 7 {
		t.Fatalf("AddAndGet(int) = %d", got)
	}
}

func TestAtomicInt64Multiply(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64, int64(3))
	if got := call[int64](t, m, a, "Multiply", int64(4)); got != 12 {
		t.Fatalf("Multiply = %d", got)
	}
	if _, err := m.Call(a, "MultiplyLoop", int64(3), int64(100)); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicInt64UnknownMethod(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64)
	if _, err := m.Call(a, "Nope"); !errors.Is(err, core.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestAtomicInt64BadArgs(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64)
	if _, err := m.Call(a, "Set", "not a number"); err == nil {
		t.Fatal("Set accepted a string")
	}
	if _, err := m.Call(a, "AddAndGet"); err == nil {
		t.Fatal("AddAndGet accepted no args")
	}
}

func TestAtomicInt64Snapshot(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicInt64, int64(77)).(*AtomicInt64)
	data, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := mustNew(t, NewAtomicInt64).(*AtomicInt64)
	if err := b.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, b, "Get"); got != 77 {
		t.Fatalf("restored value = %d", got)
	}
}

// Property: a random op sequence matches a pure int64 model.
func TestAtomicInt64ModelProperty(t *testing.T) {
	m := newTestMonitor()
	f := func(ops []int8, deltas []int16) bool {
		a := &AtomicInt64{}
		var model int64
		for i, op := range ops {
			var d int64 = 1
			if i < len(deltas) {
				d = int64(deltas[i])
			}
			switch op % 4 {
			case 0:
				res, err := m.Call(a, "AddAndGet", d)
				model += d
				if err != nil || res[0].(int64) != model {
					return false
				}
			case 1:
				res, err := m.Call(a, "IncrementAndGet")
				model++
				if err != nil || res[0].(int64) != model {
					return false
				}
			case 2:
				_, err := m.Call(a, "Set", d)
				model = d
				if err != nil {
					return false
				}
			case 3:
				res, err := m.Call(a, "Get")
				if err != nil || res[0].(int64) != model {
					return false
				}
			}
		}
		res, err := m.Call(a, "Get")
		return err == nil && res[0].(int64) == model
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicBoolean(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewAtomicBoolean)
	if got := call[bool](t, m, b, "Get"); got {
		t.Fatal("initial value true")
	}
	if _, err := m.Call(b, "Set", true); err != nil {
		t.Fatal(err)
	}
	if got := call[bool](t, m, b, "GetAndSet", false); !got {
		t.Fatal("GetAndSet old value wrong")
	}
	if ok := call[bool](t, m, b, "CompareAndSet", false, true); !ok {
		t.Fatal("CAS failed")
	}
	if ok := call[bool](t, m, b, "CompareAndSet", false, true); ok {
		t.Fatal("stale CAS succeeded")
	}
}

func TestAtomicBooleanInit(t *testing.T) {
	m := newTestMonitor()
	b := mustNew(t, NewAtomicBoolean, true)
	if got := call[bool](t, m, b, "Get"); !got {
		t.Fatal("init value lost")
	}
}

func TestAtomicReference(t *testing.T) {
	m := newTestMonitor()
	r := mustNew(t, NewAtomicReference)
	if got := call[bool](t, m, r, "IsNil"); !got {
		t.Fatal("fresh reference not nil")
	}
	if _, err := m.Call(r, "Set", "hello"); err != nil {
		t.Fatal(err)
	}
	if got := call[string](t, m, r, "Get"); got != "hello" {
		t.Fatalf("Get = %q", got)
	}
	if got := call[string](t, m, r, "GetAndSet", "world"); got != "hello" {
		t.Fatalf("GetAndSet old = %q", got)
	}
	if ok := call[bool](t, m, r, "CompareAndSet", "world", "done"); !ok {
		t.Fatal("CAS failed on equal value")
	}
	if ok := call[bool](t, m, r, "CompareAndSet", "world", "x"); ok {
		t.Fatal("stale CAS succeeded")
	}
}

// eightKeyMap builds a fresh map[string]any with the same eight entries
// every call, so two results are equal values in distinct maps.
func eightKeyMap(tag int64) map[string]any {
	m := make(map[string]any, 8)
	for i, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		m[k] = int64(i) + tag
	}
	return m
}

// CompareAndSet compares values, not encodings: a map equal to the current
// one matches however its entries happen to iterate. Replicas evaluate CAS
// each on its own, so a comparison that depended on map order would let
// one replica swap while another does not.
func TestAtomicReferenceCASOnEqualMap(t *testing.T) {
	m := newTestMonitor()
	r := mustNew(t, NewAtomicReference, eightKeyMap(0))
	for i := int64(0); i < 100; i++ {
		if ok := call[bool](t, m, r, "CompareAndSet", eightKeyMap(i), eightKeyMap(i+1)); !ok {
			t.Fatalf("CAS %d with an equal 8-key map as the expected value failed", i)
		}
	}
	if ok := call[bool](t, m, r, "CompareAndSet", eightKeyMap(0), nil); ok {
		t.Fatal("CAS with an unequal map succeeded")
	}
}

func TestAtomicReferenceSnapshot(t *testing.T) {
	m := newTestMonitor()
	r := mustNew(t, NewAtomicReference, []float64{1, 2}).(*AtomicReference)
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2 := mustNew(t, NewAtomicReference).(*AtomicReference)
	if err := r2.Restore(data); err != nil {
		t.Fatal(err)
	}
	got := call[[]float64](t, m, r2, "Get")
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("restored = %v", got)
	}
}

func TestAtomicByteArray(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicByteArray, int64(4))
	if got := call[int64](t, m, a, "Length"); got != 4 {
		t.Fatalf("Length = %d", got)
	}
	if _, err := m.Call(a, "Set", int64(2), int64(0xAB)); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, a, "Get", int64(2)); got != 0xAB {
		t.Fatalf("Get = %#x", got)
	}
	all := call[[]byte](t, m, a, "GetAll")
	if all[2] != 0xAB || len(all) != 4 {
		t.Fatalf("GetAll = %v", all)
	}
	if _, err := m.Call(a, "SetAll", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, a, "Length"); got != 3 {
		t.Fatalf("Length after SetAll = %d", got)
	}
}

func TestAtomicByteArrayBounds(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicByteArray, int64(2))
	if _, err := m.Call(a, "Get", int64(5)); err == nil {
		t.Fatal("out-of-range Get accepted")
	}
	if _, err := m.Call(a, "Set", int64(-1), int64(0)); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := NewAtomicByteArray([]any{int64(-3)}); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestAtomicByteArrayPreload(t *testing.T) {
	m := newTestMonitor()
	a := mustNew(t, NewAtomicByteArray, int64(3), []byte{9, 8, 7})
	if got := call[int64](t, m, a, "Get", int64(0)); got != 9 {
		t.Fatalf("preload lost: %d", got)
	}
}
