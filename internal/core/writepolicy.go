package core

// WritePolicy once configured group commit on the SMR write path.
//
// Deprecated: nothing reads it. Group commit is every replicated write's
// own behaviour (DESIGN.md §5e): a write runs inline while its object's
// lane has room and otherwise rides the next round cut from the writes
// queued on it. The type stays only while the benchmark harness names it.
type WritePolicy struct {
	// MaxBatch once capped how many invocations one round carried.
	MaxBatch int
}

// DefaultWritePolicy returns the policy that once turned group commit on.
//
// Deprecated: nothing reads the result.
func DefaultWritePolicy() WritePolicy {
	return WritePolicy{MaxBatch: 64}
}

// Batching reports whether MaxBatch exceeds one.
//
// Deprecated: the answer changes nothing.
func (p WritePolicy) Batching() bool { return p.MaxBatch > 1 }
