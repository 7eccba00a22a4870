package core

import "testing"

// Allocation budgets on the RPC hot path, enforced by `make verify`
// (alloc-guard target). PR 3 brought the invocation round trip down to 8
// allocs/op; these tests turn that benchmark number into a regression
// gate so later instrumentation (like the per-object tracker) cannot
// quietly pay for itself with hot-path garbage. If a test fails, either
// remove the new allocations or consciously raise the budget here. The
// invocation round trip reads 6 (its type and method names are shared
// copies) and the response 3, in 20 of 20 runs on the 2-vCPU reference box
// (go1.24, 2026-10-19); the budgets are about 10 % above.
const (
	invocationRoundTripAllocBudget = 7
	responseRoundTripAllocBudget   = 4
)

// TestInvocationRoundTripAllocBudget pins the encode+decode cost of a
// representative hot-path invocation (see benchInvocation).
func TestInvocationRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	inv := benchInvocation()
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(200, func() {
		data, err := AppendInvocation(buf[:0], inv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeInvocation(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > invocationRoundTripAllocBudget {
		t.Fatalf("invocation round trip allocates %.1f/op, budget %d",
			got, invocationRoundTripAllocBudget)
	}
	t.Logf("invocation round trip allocates %.1f/op (budget %d)", got, invocationRoundTripAllocBudget)
}

// TestResponseRoundTripAllocBudget pins the response side.
func TestResponseRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	resp := benchResponse()
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(200, func() {
		data, err := AppendResponse(buf[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeResponse(data); err != nil {
			t.Fatal(err)
		}
	})
	if got > responseRoundTripAllocBudget {
		t.Fatalf("response round trip allocates %.1f/op, budget %d",
			got, responseRoundTripAllocBudget)
	}
	t.Logf("response round trip allocates %.1f/op (budget %d)", got, responseRoundTripAllocBudget)
}

// A call on the ref a server expects, without arguments — a barrier's
// Await, a GetAll — decodes with no allocation however long its Init
// list: the names are shared, the ref is the caller's and Init stays
// encoded until a copy is created from it (DecodeInvocationOn). Decoding
// Init cost every such call a list and its boxes.
func TestLazyInitDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	ref := Ref{Type: "CyclicBarrier", Key: "b"}
	await, err := EncodeInvocation(Invocation{Ref: ref, Method: "Await", Init: []any{int64(1000), "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInvocationOn(await, ref); err != nil { // interns the names
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = DecodeInvocationOn(await, ref) }); got != 0 {
		t.Fatalf("a call without arguments on its expected ref decodes with %.0f allocations, want 0", got)
	}
}
