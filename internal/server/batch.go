package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/telemetry"
	"crucial/internal/workpool"
)

// Group commit on the SMR write path (DESIGN.md §5e): instead of one
// ordering round per mutation, concurrent writes to one object are queued
// per ref and flushed as a batch — one MsgID, one payload carrying up to
// WritePolicy.MaxBatch stamped invocations — so the whole replica group
// pays a single ACCEPT exchange, one lease-revocation fence and one
// monitor acquisition for N operations. Up to pipelineDepth rounds per ref
// may be in flight concurrently: the in-flight admission check only
// refuses *other* coordinators (inflightTracker.admit), and each round's
// seq fixes its place in the ref's order at every member — the primary
// applies its rounds in seq order by construction, and a member holds a
// round that overtook its predecessor until that one applies (awaitTurn)
// — so pipelining overlaps round k's member replies with round k+1's apply
// and send without giving up linearizability.

// pipelineDepth is how many group-commit rounds per ref may be in flight.
// Two lets round k+1 form and go out while round k collects its member
// replies; the next cut waits for a free slot, so batches grow with load.
const pipelineDepth = 2

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
// dispatcher goroutine per active ref collects batches and hands each to a
// pooled round worker; idle refs cost nothing (their queue entry is
// deleted once drained and settled).
type writeBatcher struct {
	n        *Node
	maxBatch int
	// rounds runs the flushes. It is never closed: rounds in flight at
	// shutdown run out under their own deadline, and idle workers retire
	// on their own.
	rounds *workpool.Pool[batchRound]

	mu     sync.Mutex
	closed bool
	queues map[core.Ref]*refQueue
}

func newWriteBatcher(n *Node, maxBatch int) *writeBatcher {
	b := &writeBatcher{n: n, maxBatch: maxBatch, queues: make(map[core.Ref]*refQueue)}
	b.rounds = workpool.New(b.runBatch)
	return b
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
		rq = &refQueue{slots: make(chan struct{}, pipelineDepth)}
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
// maxBatch writes and flush them in the background. The slot is acquired
// BEFORE the queue is cut so that writes arriving while all slots are busy
// join the batch about to flush instead of waiting a full extra round —
// under saturation this is what lets batch sizes track the arrival rate.
// dispatch exits when the queue is empty; the next submit restarts it.
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
		take := min(len(rq.pending), b.maxBatch)
		batch := rq.pending[:take:take]
		rq.pending = rq.pending[take:]
		b.mu.Unlock()

		if len(batch) == 0 {
			// The queue emptied between the length check and the cut (close
			// raced in); release the slot and re-check.
			<-rq.slots
			continue
		}

		b.mu.Lock()
		rq.inflight++
		b.mu.Unlock()
		b.rounds.Go(batchRound{ref: ref, rq: rq, batch: batch})
	}
}

// batchRound is one cut batch on its way to a round worker.
type batchRound struct {
	ref   core.Ref
	rq    *refQueue
	batch []*batchedWrite
}

// runBatch flushes one batch on a round worker and frees its pipeline slot.
func (b *writeBatcher) runBatch(r batchRound) {
	b.flush(r.ref, r.batch)
	<-r.rq.slots
	b.mu.Lock()
	r.rq.inflight--
	if r.rq.inflight == 0 && !r.rq.running && len(r.rq.pending) == 0 && b.queues[r.ref] == r.rq {
		delete(b.queues, r.ref)
	}
	b.mu.Unlock()
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
	// The bound covers a member holding the round and then pulling (see
	// awaitTurn) with room to spare, and the lease fence's worst case
	// (revocation plus holder expiry).
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
	// write may be flushed under a later view. Every write of a batch
	// targets one object, so the first says whether it is replicated.
	group, view := n.replicaGroup(ref, batch[0].inv.Persist)
	res, ordered, err := n.runRound(ctx, group, view, invs)
	if ordered {
		// Counted like smr_rounds, from the local apply on: a round that a
		// member then refuses, or that fails its fork check or WAL wait,
		// was a group-commit round all the same.
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
