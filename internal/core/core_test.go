package core

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
)

func TestRefString(t *testing.T) {
	r := Ref{Type: "AtomicLong", Key: "counter"}
	if got, want := r.String(), "AtomicLong[counter]"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRefIsZero(t *testing.T) {
	if !(Ref{}).IsZero() {
		t.Fatal("zero ref not reported as zero")
	}
	if (Ref{Type: "T"}).IsZero() {
		t.Fatal("non-zero ref reported as zero")
	}
}

func TestEncodeDecodeErrorRoundTrip(t *testing.T) {
	tests := []error{
		ErrWrongNode, ErrUnknownType, ErrUnknownMethod,
		ErrStopped, ErrRebalancing, ErrNoSuchObject,
	}
	for _, want := range tests {
		got := DecodeError(EncodeError(want))
		if !errors.Is(got, want) {
			t.Errorf("round trip of %v lost identity: got %v", want, got)
		}
	}
}

func TestDecodeErrorWrappedSentinel(t *testing.T) {
	wire := EncodeError(errors.Join()) // nil-ish
	if wire != "" {
		t.Fatalf("EncodeError(nil-join) = %q", wire)
	}
	err := DecodeError(ErrWrongNode.Error() + ": node 3 view 7")
	if !errors.Is(err, ErrWrongNode) {
		t.Fatalf("wrapped sentinel not recognised: %v", err)
	}
}

func TestDecodeErrorEmpty(t *testing.T) {
	if err := DecodeError(""); err != nil {
		t.Fatalf("DecodeError(\"\") = %v, want nil", err)
	}
}

// errCustom is declared once, as the sentinel contract requires: a fresh
// errors.New per test run would lose to the first registration under
// -count=2.
var errCustom = errors.New("layer: custom failure")

func TestRegisterErrorSentinel(t *testing.T) {
	RegisterErrorSentinel(errCustom)
	RegisterErrorSentinel(errCustom) // idempotent
	if got := DecodeError(EncodeError(errCustom)); !errors.Is(got, errCustom) {
		t.Fatalf("registered sentinel lost identity: %v", got)
	}
	if got := DecodeError(errCustom.Error() + ": with context"); !errors.Is(got, errCustom) {
		t.Fatalf("wrapped registered sentinel not recognised: %v", got)
	}
}

func TestDecodeErrorUnknown(t *testing.T) {
	err := DecodeError("something else broke")
	if err == nil || err.Error() != "something else broke" {
		t.Fatalf("unknown error mangled: %v", err)
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	info := TypeInfo{Name: "X", New: func([]any) (Object, error) { return nil, nil }}
	if err := r.Register(info); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("X")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "X" {
		t.Fatalf("Lookup returned %q", got.Name)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	info := TypeInfo{Name: "X", New: func([]any) (Object, error) { return nil, nil }}
	if err := r.Register(info); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(info); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(TypeInfo{Name: "", New: func([]any) (Object, error) { return nil, nil }}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register(TypeInfo{Name: "Y"}); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestRegistryLookupUnknown(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("want ErrUnknownType, got %v", err)
	}
}

func TestRegistryTypes(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"A", "B", "C"} {
		r.MustRegister(TypeInfo{Name: n, New: func([]any) (Object, error) { return nil, nil }})
	}
	if got := len(r.Types()); got != 3 {
		t.Fatalf("Types() has %d entries, want 3", got)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister did not panic on invalid info")
		}
	}()
	NewRegistry().MustRegister(TypeInfo{})
}

func TestInvocationCodecRoundTrip(t *testing.T) {
	inv := Invocation{
		Ref:     Ref{Type: "AtomicLong", Key: "k"},
		Method:  "AddAndGet",
		Args:    []any{int64(5), "tag", []float64{1, 2, 3}},
		Init:    []any{int64(0)},
		Persist: true,
	}
	data, err := EncodeInvocation(inv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInvocation(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ref != inv.Ref || got.Method != inv.Method || !got.Persist {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Args[0].(int64) != 5 || got.Args[1].(string) != "tag" {
		t.Fatalf("args mismatch: %+v", got.Args)
	}
	if f := got.Args[2].([]float64); len(f) != 3 || f[2] != 3 {
		t.Fatalf("slice arg mismatch: %+v", f)
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := Response{Results: []any{int64(42), true}, Err: ""}
	data, err := EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0].(int64) != 42 || got.Results[1].(bool) != true {
		t.Fatalf("results mismatch: %+v", got.Results)
	}
}

func TestDecodeInvocationGarbage(t *testing.T) {
	if _, err := DecodeInvocation([]byte("not gob")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	if _, err := DecodeResponse([]byte{0x01, 0x02}); err == nil {
		t.Fatal("garbage response decoded without error")
	}
}

func TestValueCodec(t *testing.T) {
	type payload struct {
		A int
		B []string
	}
	in := payload{A: 7, B: []string{"x", "y"}}
	data, err := EncodeValue(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := DecodeValue(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != 7 || len(out.B) != 2 || out.B[1] != "y" {
		t.Fatalf("value round trip mismatch: %+v", out)
	}
}

func TestArgHelpers(t *testing.T) {
	args := []any{int64(3), "s"}
	n, err := Arg[int64](args, 0)
	if err != nil || n != 3 {
		t.Fatalf("Arg[int64] = %v, %v", n, err)
	}
	s, err := Arg[string](args, 1)
	if err != nil || s != "s" {
		t.Fatalf("Arg[string] = %v, %v", s, err)
	}
	if _, err := Arg[int64](args, 5); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := Arg[bool](args, 0); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestOptArg(t *testing.T) {
	v, err := OptArg[int64](nil, 0, 9)
	if err != nil || v != 9 {
		t.Fatalf("OptArg default = %v, %v", v, err)
	}
	v, err = OptArg[int64]([]any{int64(4)}, 0, 9)
	if err != nil || v != 4 {
		t.Fatalf("OptArg present = %v, %v", v, err)
	}
	if _, err := OptArg[int64]([]any{"no"}, 0, 9); err == nil {
		t.Fatal("OptArg type mismatch accepted")
	}
}

func TestNumberAsInt64(t *testing.T) {
	cases := []any{int(1), int32(1), int64(1), uint64(1), float32(1), float64(1)}
	for _, c := range cases {
		n, ok := NumberAsInt64(c)
		if !ok || n != 1 {
			t.Fatalf("NumberAsInt64(%T) = %v, %v", c, n, ok)
		}
	}
	if _, ok := NumberAsInt64("1"); ok {
		t.Fatal("string coerced to int64")
	}
}

func TestInt64Arg(t *testing.T) {
	if n, err := Int64Arg([]any{int(7)}, 0); err != nil || n != 7 {
		t.Fatalf("Int64Arg = %v, %v", n, err)
	}
	if _, err := Int64Arg([]any{}, 0); err == nil {
		t.Fatal("missing arg accepted")
	}
	if _, err := Int64Arg([]any{"x"}, 0); err == nil {
		t.Fatal("non-numeric accepted")
	}
}

func TestInvocationCodecProperty(t *testing.T) {
	f := func(typ, key, method string, a int64, b string, persist bool) bool {
		inv := Invocation{
			Ref:     Ref{Type: typ, Key: key},
			Method:  method,
			Args:    []any{a, b},
			Persist: persist,
		}
		data, err := EncodeInvocation(inv)
		if err != nil {
			return false
		}
		got, err := DecodeInvocation(data)
		if err != nil {
			return false
		}
		return got.Ref == inv.Ref && got.Method == method &&
			got.Persist == persist &&
			got.Args[0].(int64) == a && got.Args[1].(string) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ctlStub lets tests assert interface shape without a server.
type ctlStub struct{ ctx context.Context }

func (c ctlStub) Wait(func() bool) error   { return nil }
func (c ctlStub) Broadcast()               {}
func (c ctlStub) Context() context.Context { return c.ctx }

var _ Ctl = ctlStub{}
