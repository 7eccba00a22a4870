package objects

import (
	"fmt"
	"testing"
	"testing/quick"

	"crucial/internal/core"
)

func TestListBasics(t *testing.T) {
	m := newTestMonitor()
	l := mustNew(t, NewList)
	if got := call[int64](t, m, l, "Size"); got != 0 {
		t.Fatalf("fresh Size = %d", got)
	}
	if got := call[int64](t, m, l, "Add", "a"); got != 0 {
		t.Fatalf("Add index = %d", got)
	}
	if got := call[int64](t, m, l, "Add", "b"); got != 1 {
		t.Fatalf("Add index = %d", got)
	}
	if got := call[string](t, m, l, "Get", int64(1)); got != "b" {
		t.Fatalf("Get(1) = %q", got)
	}
	if got := call[string](t, m, l, "Set", int64(0), "z"); got != "a" {
		t.Fatalf("Set old = %q", got)
	}
	if ok := call[bool](t, m, l, "Contains", "z"); !ok {
		t.Fatal("Contains missed value")
	}
	if ok := call[bool](t, m, l, "Contains", "nope"); ok {
		t.Fatal("Contains found ghost")
	}
	if got := call[string](t, m, l, "Remove", int64(0)); got != "z" {
		t.Fatalf("Remove = %q", got)
	}
	if got := call[int64](t, m, l, "Size"); got != 1 {
		t.Fatalf("Size after remove = %d", got)
	}
	if _, err := m.Call(l, "Clear"); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, l, "Size"); got != 0 {
		t.Fatalf("Size after clear = %d", got)
	}
}

func TestListGetAllIsCopy(t *testing.T) {
	m := newTestMonitor()
	l := mustNew(t, NewList)
	_, _ = m.Call(l, "Add", int64(1))
	all := call[[]any](t, m, l, "GetAll")
	all[0] = int64(99)
	if got := call[int64](t, m, l, "Get", int64(0)); got != 1 {
		t.Fatal("GetAll leaked internal slice")
	}
}

func TestListBounds(t *testing.T) {
	m := newTestMonitor()
	l := mustNew(t, NewList)
	if _, err := m.Call(l, "Get", int64(0)); err == nil {
		t.Fatal("Get on empty list accepted")
	}
	if _, err := m.Call(l, "Remove", int64(3)); err == nil {
		t.Fatal("Remove out of range accepted")
	}
	if _, err := m.Call(l, "Set", int64(0), "x"); err == nil {
		t.Fatal("Set out of range accepted")
	}
}

func TestListSnapshot(t *testing.T) {
	m := newTestMonitor()
	l := mustNew(t, NewList).(*List)
	_, _ = m.Call(l, "Add", "x")
	_, _ = m.Call(l, "Add", int64(2))
	data, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	l2 := mustNew(t, NewList).(*List)
	if err := l2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, l2, "Size"); got != 2 {
		t.Fatalf("restored size = %d", got)
	}
	if got := call[string](t, m, l2, "Get", int64(0)); got != "x" {
		t.Fatalf("restored item = %q", got)
	}
}

// Contains compares values: an equal map is found whatever its iteration
// order (see TestAtomicReferenceCASOnEqualMap).
func TestListContainsEqualMap(t *testing.T) {
	m := newTestMonitor()
	l := mustNew(t, NewList)
	if _, err := m.Call(l, "Add", eightKeyMap(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !call[bool](t, m, l, "Contains", eightKeyMap(0)) {
			t.Fatalf("Contains %d missed an equal 8-key map", i)
		}
	}
	if call[bool](t, m, l, "Contains", eightKeyMap(1)) {
		t.Fatal("Contains found an unequal map")
	}
}

func TestMapBasics(t *testing.T) {
	m := newTestMonitor()
	mp := mustNew(t, NewMap)
	res, err := m.Call(mp, "Put", "k1", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if had := res[1].(bool); had {
		t.Fatal("fresh Put reported prior value")
	}
	res, err = m.Call(mp, "Get", "k1")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 1 || !res[1].(bool) {
		t.Fatalf("Get = %v", res)
	}
	res, err = m.Call(mp, "Get", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if res[1].(bool) {
		t.Fatal("Get on missing key reported present")
	}
	if ok := call[bool](t, m, mp, "ContainsKey", "k1"); !ok {
		t.Fatal("ContainsKey missed")
	}
	if got := call[int64](t, m, mp, "Size"); got != 1 {
		t.Fatalf("Size = %d", got)
	}
	res, err = m.Call(mp, "Remove", "k1")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 1 || !res[1].(bool) {
		t.Fatalf("Remove = %v", res)
	}
	if got := call[int64](t, m, mp, "Size"); got != 0 {
		t.Fatalf("Size after remove = %d", got)
	}
}

func TestMapPutIfAbsent(t *testing.T) {
	m := newTestMonitor()
	mp := mustNew(t, NewMap)
	res, _ := m.Call(mp, "PutIfAbsent", "k", "v1")
	if !res[1].(bool) {
		t.Fatal("first PutIfAbsent did not insert")
	}
	res, _ = m.Call(mp, "PutIfAbsent", "k", "v2")
	if res[1].(bool) || res[0].(string) != "v1" {
		t.Fatalf("second PutIfAbsent = %v", res)
	}
}

func TestMapKeysAndClear(t *testing.T) {
	m := newTestMonitor()
	mp := mustNew(t, NewMap)
	for i := 0; i < 5; i++ {
		_, _ = m.Call(mp, "Put", fmt.Sprintf("k%d", i), int64(i))
	}
	keys := call[[]string](t, m, mp, "Keys")
	if len(keys) != 5 {
		t.Fatalf("Keys len = %d", len(keys))
	}
	if _, err := m.Call(mp, "Clear"); err != nil {
		t.Fatal(err)
	}
	if got := call[int64](t, m, mp, "Size"); got != 0 {
		t.Fatalf("Size after clear = %d", got)
	}
}

// Property: the Map object agrees with a native Go map under random
// put/get/remove sequences.
func TestMapModelProperty(t *testing.T) {
	m := newTestMonitor()
	f := func(ops []uint8, keys []uint8, vals []int16) bool {
		obj := mustNewQuick(NewMap)
		model := map[string]int64{}
		for i, op := range ops {
			k := "k0"
			if i < len(keys) {
				k = fmt.Sprintf("k%d", keys[i]%8)
			}
			var v int64 = 1
			if i < len(vals) {
				v = int64(vals[i])
			}
			switch op % 3 {
			case 0:
				if _, err := m.Call(obj, "Put", k, v); err != nil {
					return false
				}
				model[k] = v
			case 1:
				res, err := m.Call(obj, "Get", k)
				if err != nil {
					return false
				}
				mv, ok := model[k]
				if res[1].(bool) != ok {
					return false
				}
				if ok && res[0].(int64) != mv {
					return false
				}
			case 2:
				if _, err := m.Call(obj, "Remove", k); err != nil {
					return false
				}
				delete(model, k)
			}
		}
		res, err := m.Call(obj, "Size")
		return err == nil && res[0].(int64) == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustNewQuick(f core.Factory) core.Object {
	obj, err := f(nil)
	if err != nil {
		panic(err)
	}
	return obj
}
