package cluster

import (
	"context"
	"testing"

	"crucial/internal/core"
	"crucial/internal/objects"
)

// replicatedInvokeAllocBudget is what one sequential RF-2 AddAndGet on the
// zero WritePolicy allocated, client and both replicas together, at the
// commit before the one-round merge: 725-730 over five samples of 500
// calls, measured 2026-10-04 on the 2-vCPU reference box (go1.24). The
// merged round must not cost the unbatched path more than the two paths it
// replaced; `make alloc-guard` holds it there. Most of the figure is
// per-frame gob on PROPOSE/FINAL (ROADMAP item 1a), so expect to lower it.
const replicatedInvokeAllocBudget = 730

// TestReplicatedInvokeAllocBudget pins the allocations of the round of one.
func TestReplicatedInvokeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	c, err := StartLocal(Options{Nodes: 3, RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	add := core.Invocation{Ref: core.Ref{Type: objects.TypeAtomicLong, Key: "alloc/counter"},
		Method: "AddAndGet", Args: []any{int64(1)}, Persist: true}
	if _, err := cl.InvokeObject(ctx, add); err != nil { // genesis, connections, caches
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if _, err := cl.InvokeObject(ctx, add); err != nil {
			t.Fatal(err)
		}
	})
	if got > replicatedInvokeAllocBudget {
		t.Fatalf("replicated AddAndGet allocates %.0f/op, budget %d", got, replicatedInvokeAllocBudget)
	}
	t.Logf("replicated AddAndGet allocates %.0f/op (budget %d)", got, replicatedInvokeAllocBudget)
}
