package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/telemetry"
)

// Group commit on the SMR write path (DESIGN.md §5e): instead of one
// Skeen ordering round per mutation, concurrent writes to one object are
// queued per ref and flushed as a batch — one MsgID, one payload carrying
// up to WritePolicy.MaxBatch stamped invocations — so the whole replica
// group pays a single PROPOSE/FINAL exchange, one lease-revocation fence
// and one monitor acquisition for N operations. Up to
// WritePolicy.PipelineDepth rounds per ref may be in flight concurrently:
// the in-flight admission check only refuses *other* coordinators
// (inflightTracker.admit), and Skeen orders concurrent rounds from one
// origin consistently at every member, so pipelining overlaps round k's
// FINAL acks with round k+1's proposes without giving up linearizability.

// batchedWrite is one caller's mutation queued for group commit. done is
// buffered so a flush never blocks on a caller that gave up (context
// expiry abandons the channel and the outcome is simply dropped — the
// client's retry is answered from the at-most-once window).
type batchedWrite struct {
	ctx  context.Context
	inv  core.Invocation
	done chan opResult
}

// refQueue is the per-object batch state: queued writes, whether a
// dispatcher goroutine currently owns the queue, and the pipeline gate
// bounding concurrently outstanding rounds for this ref.
type refQueue struct {
	pending  []*batchedWrite
	running  bool
	inflight int
	slots    chan struct{}
}

// writeBatcher implements the coordinator-side submit queue. One
// dispatcher goroutine per active ref collects batches and launches flush
// goroutines; idle refs cost nothing (their queue entry is deleted once
// drained and settled).
type writeBatcher struct {
	n   *Node
	pol core.WritePolicy

	mu     sync.Mutex
	closed bool
	queues map[core.Ref]*refQueue
}

func newWriteBatcher(n *Node, pol core.WritePolicy) *writeBatcher {
	return &writeBatcher{n: n, pol: pol, queues: make(map[core.Ref]*refQueue)}
}

// submit queues one write for group commit and waits for its outcome,
// attributing the caller's wait on its shared round to the per-invocation
// span the same way an inline round attributes its own.
func (b *writeBatcher) submit(ctx context.Context, inv core.Invocation) ([]any, error) {
	if b.n.instrumented {
		defer func(start time.Time) {
			telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingSMR, time.Since(start))
		}(time.Now())
	}
	w := &batchedWrite{ctx: ctx, inv: inv, done: make(chan opResult, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, core.ErrStopped
	}
	rq := b.queues[inv.Ref]
	if rq == nil {
		rq = &refQueue{slots: make(chan struct{}, b.pol.PipelineDepth())}
		b.queues[inv.Ref] = rq
	}
	rq.pending = append(rq.pending, w)
	if !rq.running {
		rq.running = true
		go b.dispatch(inv.Ref, rq)
	}
	b.mu.Unlock()
	select {
	case out := <-w.done:
		return out.results, out.err
	case <-ctx.Done():
		if b.n.closed.Load() {
			// The handler context died with the node (see runRound).
			return nil, core.ErrStopped
		}
		return nil, ctx.Err()
	}
}

// dispatch drains one ref's queue: take a pipeline slot, pop up to
// MaxBatch writes, optionally linger MaxDelay for stragglers, and flush
// in the background. The slot is acquired BEFORE the queue is cut so that
// writes arriving while all slots are busy join the batch about to flush
// instead of waiting a full extra round — under saturation this is what
// lets batch sizes track the arrival rate. dispatch exits when the queue
// is empty; the next submit restarts it.
func (b *writeBatcher) dispatch(ref core.Ref, rq *refQueue) {
	for {
		b.mu.Lock()
		if b.closed {
			pending := rq.pending
			rq.pending, rq.running = nil, false
			b.mu.Unlock()
			failBatch(pending, core.ErrStopped)
			return
		}
		if len(rq.pending) == 0 {
			rq.running = false
			if rq.inflight == 0 && b.queues[ref] == rq {
				delete(b.queues, ref)
			}
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()

		rq.slots <- struct{}{} // pipeline gate

		b.mu.Lock()
		take := min(len(rq.pending), b.pol.MaxBatch)
		batch := rq.pending[:take:take]
		rq.pending = rq.pending[take:]
		b.mu.Unlock()

		if len(batch) < b.pol.MaxBatch && b.pol.MaxDelay > 0 {
			// Group-commit linger: trade this batch's latency for size.
			time.Sleep(b.pol.MaxDelay)
			b.mu.Lock()
			extra := min(b.pol.MaxBatch-len(batch), len(rq.pending))
			batch = append(batch, rq.pending[:extra]...)
			rq.pending = rq.pending[extra:]
			b.mu.Unlock()
		}
		if len(batch) == 0 {
			// The queue emptied between the length check and the cut (close
			// raced in); release the slot and re-check.
			<-rq.slots
			continue
		}

		b.mu.Lock()
		rq.inflight++
		b.mu.Unlock()
		go func(batch []*batchedWrite) {
			b.flush(ref, batch)
			<-rq.slots
			b.mu.Lock()
			rq.inflight--
			if rq.inflight == 0 && !rq.running && len(rq.pending) == 0 && b.queues[ref] == rq {
				delete(b.queues, ref)
			}
			b.mu.Unlock()
		}(batch)
	}
}

// close fails every queued write; dispatchers notice closed on their next
// pass and in-flight rounds run to completion (bounded by flush's
// deadline) against the shutting-down transport.
func (b *writeBatcher) close() {
	b.mu.Lock()
	b.closed = true
	var orphaned [][]*batchedWrite
	for _, rq := range b.queues {
		if len(rq.pending) > 0 {
			orphaned = append(orphaned, rq.pending)
			rq.pending = nil
		}
	}
	b.mu.Unlock()
	for _, batch := range orphaned {
		failBatch(batch, core.ErrStopped)
	}
}

// failBatch reports one error to every write of a batch.
func failBatch(batch []*batchedWrite, err error) {
	for _, w := range batch {
		w.done <- opResult{err: err}
	}
}

// flush runs one group-commit round: the queued writes become the
// invocations of a single runRound, and its per-invocation outcomes are
// distributed back to the callers.
func (b *writeBatcher) flush(ref core.Ref, batch []*batchedWrite) {
	n := b.n
	// The round runs under its own deadline, not any caller's context: one
	// canceled caller must not fail the other writes sharing the round.
	// The bound covers the FINAL wait (10x peer timeout, like handleFinal)
	// and the lease fence's worst case (revocation plus holder expiry).
	bound := 10 * n.waitTimeout()
	if n.leases != nil {
		bound = max(bound, 4*n.leases.ttl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	if n.instrumented {
		// One span per round, parented to the first caller's trace so
		// stages -report can attribute the shared ordering work.
		var span *telemetry.Span
		ctx, span = n.tracer.Start(telemetry.ContextWithSpan(ctx,
			telemetry.SpanFromContext(batch[0].ctx)), telemetry.SpanSMRBatch)
		span.SetAttr(telemetry.AttrObjectType, ref.Type)
		span.SetAttr(telemetry.AttrBatchSize, fmt.Sprint(len(batch)))
		defer span.End()
	}
	invs := make([]core.Invocation, len(batch))
	for i, w := range batch {
		invs[i] = w.inv
	}
	// The group is computed now, not when the writes were routed: a queued
	// write may be flushed under a later view.
	group, view := n.replicaGroup(ref, true)
	res, ordered, err := n.runRound(ctx, group, view, invs)
	if ordered {
		// Counted like smr_rounds, from the multicast on: a round that then
		// fails its fork check or WAL wait was a group-commit round all the
		// same.
		n.cBatches.Inc()
		n.hBatchSize.ObserveValue(int64(len(batch)))
	}
	if err != nil {
		if ctx.Err() != nil && !errors.Is(err, core.ErrStopped) {
			// The batcher's own bound ran out, not any caller's patience:
			// the writes may still deliver, so their callers must retry.
			err = fmt.Errorf("%w: batch round for %s outlived its bound: %v",
				core.ErrRebalancing, ref, err)
		}
		failBatch(batch, err)
		return
	}
	for i, w := range batch {
		w.done <- res[i]
	}
}
