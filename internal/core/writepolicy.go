package core

import "time"

// WritePolicy is the single write-path tuning vocabulary of the system,
// the mutation-side sibling of the read-path knobs (client.CacheConfig,
// client.Config.ReadReplicas). The same struct configures the runtime
// (crucial.Options.Write), a cluster (cluster.Options.Write), one server
// (server.Config.Write), a client's connections (client.Config.Write) and
// the dso-server -write-batch/-write-delay/-write-pipeline flags, so a
// policy chosen in one place round-trips unchanged to every layer.
//
// The policy decides how many invocations one replicated round carries
// (DESIGN.md §5e). There is a single round — one total-order multicast,
// one lease fence, one apply at every replica, one fork check — and it
// takes 1..N invocations on one object. With batching on, concurrent
// mutations of one object queue per object and are flushed as rounds of
// up to MaxBatch stamped invocations, up to Pipeline such rounds per
// object in flight at once, so a round's FINAL acks overlap the next
// round's proposes.
//
// The zero value means rounds of one: every write runs its own round
// inline on the goroutine that received it — no queue, no hand-off, no
// timer — which is also how every read-only ordering round runs under any
// policy. A negative MaxBatch additionally turns off frame-level write
// coalescing on rpc connections the policy is applied to (the
// one-syscall-per-frame debug path that Client.SetWriteCoalescing(false)
// used to select).
type WritePolicy struct {
	// MaxBatch caps how many stamped invocations one ordering round may
	// carry. Values <= 1 disable batching (every write is a round of
	// one); negative values also disable rpc frame coalescing.
	MaxBatch int
	// MaxDelay is how long a forming batch may wait for more writes
	// before it is flushed. Zero flushes as soon as an ordering slot is
	// free — concurrency alone builds the batches — which favors
	// latency; a small positive delay trades first-write latency for
	// larger batches under light load.
	MaxDelay time.Duration
	// Pipeline is how many ordering rounds per object may be in flight
	// concurrently (values <= 1 mean one: the next batch's propose waits
	// for the previous batch's final round). Skeen's protocol orders
	// concurrent rounds from one coordinator consistently at every
	// member, so pipelining preserves linearizability; it overlaps the
	// FINAL ack latency of round k with the propose of round k+1.
	Pipeline int
}

// DefaultWritePolicy is the group-commit configuration the write bench
// and the -write-batch flag default to when batching is requested without
// explicit numbers: batches up to 64 ops, no artificial flush delay, two
// rounds in the pipe.
func DefaultWritePolicy() WritePolicy {
	return WritePolicy{MaxBatch: 64, MaxDelay: 0, Pipeline: 2}
}

// Batching reports whether the policy enables group commit.
func (p WritePolicy) Batching() bool { return p.MaxBatch > 1 }

// DirectWrites reports whether the policy asks rpc connections to skip
// frame-level write coalescing (the SetWriteCoalescing(false) behavior).
func (p WritePolicy) DirectWrites() bool { return p.MaxBatch < 0 }

// PipelineDepth returns the effective number of concurrently outstanding
// ordering rounds per object (at least 1).
func (p WritePolicy) PipelineDepth() int {
	if p.Pipeline <= 1 {
		return 1
	}
	return p.Pipeline
}
