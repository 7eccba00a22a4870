package core

import "testing"

func TestWritePolicyZeroValueDisabled(t *testing.T) {
	var p WritePolicy
	if p.Batching() {
		t.Fatal("zero WritePolicy must not enable batching")
	}
}

func TestWritePolicyDefault(t *testing.T) {
	if !DefaultWritePolicy().Batching() {
		t.Fatal("DefaultWritePolicy must enable batching")
	}
}

func TestWritePolicyBounds(t *testing.T) {
	for _, c := range []struct {
		maxBatch int
		batching bool
	}{{-1, false}, {0, false}, {1, false}, {2, true}, {64, true}} {
		if got := (WritePolicy{MaxBatch: c.maxBatch}).Batching(); got != c.batching {
			t.Errorf("MaxBatch %d: Batching() = %v, want %v", c.maxBatch, got, c.batching)
		}
	}
}
