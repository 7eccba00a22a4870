package core

// WritePolicy is the single write-path tuning vocabulary of the system,
// the mutation-side sibling of the read-path knob (client.CacheConfig).
// The same struct configures the runtime
// (crucial.Options.Write), a cluster (cluster.Options.Write), one server
// (server.Config.Write) and the dso-server -write-batch flag, so a policy
// chosen in one place round-trips unchanged to every layer.
//
// The policy decides how many invocations one replicated round carries
// (DESIGN.md §5e). There is a single round — one seq in the object's
// order, one lease fence, one apply at every replica, one fork check — and it
// takes 1..N invocations on one object. With batching on, concurrent
// mutations of one object queue per object and are flushed, as soon as
// one of the object's two pipeline slots is free, as rounds of up to
// MaxBatch stamped invocations; a round's member replies overlap the next
// round's apply and ACCEPT.
//
// The zero value means rounds of one: every write runs its own round
// inline on the goroutine that received it — no queue, no hand-off, no
// timer — which is also how every read-only ordering round runs under any
// policy.
type WritePolicy struct {
	// MaxBatch caps how many stamped invocations one ordering round may
	// carry. Values <= 1 disable batching (every write is a round of one).
	MaxBatch int
}

// DefaultWritePolicy is the tested group-commit configuration: rounds of
// up to 64 writes.
func DefaultWritePolicy() WritePolicy {
	return WritePolicy{MaxBatch: 64}
}

// Batching reports whether the policy enables group commit.
func (p WritePolicy) Batching() bool { return p.MaxBatch > 1 }
