package core

import "testing"

func TestReadOnlyMethodRegistry(t *testing.T) {
	RegisterReadOnlyMethods("ROTestType", "Get", "Size")
	RegisterReadOnlyMethods("ROTestType", "Get", "Contains") // idempotent union
	if !IsReadOnlyMethod("ROTestType", "Get") {
		t.Fatal("Get should be read-only")
	}
	if !IsReadOnlyMethod("ROTestType", "Contains") {
		t.Fatal("Contains should be read-only after second registration")
	}
	if IsReadOnlyMethod("ROTestType", "Set") {
		t.Fatal("unregistered method must be conservatively a write")
	}
	if IsReadOnlyMethod("NoSuchType", "Get") {
		t.Fatal("unknown type must be conservatively a write")
	}
	got := ReadOnlyMethodsOf("ROTestType")
	want := []string{"Contains", "Get", "Size"}
	if len(got) != len(want) {
		t.Fatalf("ReadOnlyMethodsOf = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReadOnlyMethodsOf = %v, want %v", got, want)
		}
	}
	// Empty registrations are no-ops, not panics.
	RegisterReadOnlyMethods("", "Get")
	RegisterReadOnlyMethods("ROTestType")
	RegisterReadOnlyMethods("ROTestType", "")
	if IsReadOnlyMethod("ROTestType", "") {
		t.Fatal("empty method name must not register")
	}
}

func TestReadOnlyFlagRoundTrip(t *testing.T) {
	for _, stamped := range []bool{false, true} {
		inv := Invocation{
			Ref:      Ref{Type: "AtomicLong", Key: "k"},
			Method:   "Get",
			Persist:  true,
			ReadOnly: true,
		}
		if stamped {
			inv.ClientID, inv.Seq = 7, 42
		}
		data, err := EncodeInvocation(inv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeInvocation(data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ReadOnly {
			t.Fatalf("stamped=%v: ReadOnly flag lost in round trip", stamped)
		}
		if !got.Persist || got.ClientID != inv.ClientID || got.Seq != inv.Seq {
			t.Fatalf("stamped=%v: neighbor fields corrupted: %+v", stamped, got)
		}
	}
}
