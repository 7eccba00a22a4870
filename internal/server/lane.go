package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/telemetry"
)

// Group commit is the write lane's own behaviour at the primary (DESIGN.md
// §5e). A mutation of a replicated object runs inline as a round of one,
// on its caller's goroutine under its caller's context, while fewer than
// pipelineDepth of the ref's rounds from this node are in flight. Otherwise
// it queues on the ref, and the round that frees a slot hands the slot and
// a cut of up to maxCut queued writes to the first of their callers, which
// runs them as one round and answers the others (runCut). Nothing runs per
// ref or per round but the callers: a lane is a map entry, removed once
// the ref is idle.

// pipelineDepth is how many rounds of one ref this node keeps in flight:
// round k+1's apply and ACCEPT overlap round k's member replies, and each
// round's seq fixes its place at every member (awaitTurn).
const pipelineDepth = 2

// maxCut caps how many queued writes one round carries.
const maxCut = 64

// lane is one ref's write state at this node (Node.lanesMu).
type lane struct {
	inflight int          // rounds in flight, at most pipelineDepth
	queued   []*laneWrite // writes waiting for a slot, in arrival order
}

// laneWrite is one caller's queued write. ready fires once it is cut: the
// cut's first write then finds the cut in batch (set under Node.lanesMu),
// any other its outcome in out.
type laneWrite struct {
	ctx   context.Context
	inv   core.Invocation
	batch []*laneWrite
	out   opResult
	ready chan struct{}
}

var laneWrites = sync.Pool{New: func() any { return &laneWrite{ready: make(chan struct{}, 1)} }}

// enterLane takes one of inv's lane slots and returns nil, or, when the
// lane is full, queues inv and returns its queued write (see awaitCut).
func (n *Node) enterLane(ctx context.Context, inv core.Invocation) (w *laneWrite) {
	n.lanesMu.Lock()
	l := n.lanes[inv.Ref]
	if l.inflight < pipelineDepth {
		l.inflight++
	} else {
		w = laneWrites.Get().(*laneWrite)
		w.ctx, w.inv = ctx, inv
		l.queued = append(l.queued, w)
	}
	n.lanes[inv.Ref] = l
	n.lanesMu.Unlock()
	return w
}

// freeSlot ends one of ref's rounds: the slot passes straight to a cut of
// the queued writes, or the lane has room again and goes once idle.
func (n *Node) freeSlot(ref core.Ref) {
	n.lanesMu.Lock()
	l := n.lanes[ref]
	if len(l.queued) == 0 {
		if l.inflight--; l.inflight == 0 {
			delete(n.lanes, ref)
		} else {
			n.lanes[ref] = l
		}
		n.lanesMu.Unlock()
		return
	}
	take := min(len(l.queued), maxCut)
	cut := l.queued[:take:take]
	l.queued = l.queued[take:]
	n.lanes[ref] = l
	cut[0].batch = cut
	n.lanesMu.Unlock()
	cut[0].ready <- struct{}{}
}

// awaitCut waits for a queued write's outcome, or for the cut it leads,
// and attributes the wait to the caller's span. A caller that gives up
// leaves the queue, or, once cut, its outcome unread; the cut's first
// write runs its cut anyway, since the others wait on it.
func (n *Node) awaitCut(ctx context.Context, w *laneWrite) ([]any, error) {
	if n.instrumented {
		defer func(start time.Time) {
			telemetry.SpanFromContext(ctx).AddTiming(telemetry.TimingSMR, time.Since(start))
		}(time.Now())
	}
	select {
	case <-w.ready:
	case <-ctx.Done():
		n.lanesMu.Lock()
		if l := n.lanes[w.inv.Ref]; len(l.queued) > 0 {
			l.queued = slices.DeleteFunc(l.queued, func(q *laneWrite) bool { return q == w })
			n.lanes[w.inv.Ref] = l
		}
		lead := w.batch != nil
		n.lanesMu.Unlock()
		if !lead {
			if n.closed.Load() {
				return nil, core.ErrStopped // the handler context died with the node
			}
			return nil, ctx.Err()
		}
		<-w.ready
	}
	if w.batch != nil {
		return n.runCut(w)
	}
	out := w.out
	w.recycle()
	return out.results, out.err
}

// runCut runs lead's cut as one round, answers the cut's other writes and
// frees the slot it held. The round runs under a bounded context of its
// own, never a caller's: one canceled caller must not fail the others. The
// bound covers a member holding the round and then pulling (awaitTurn),
// and the lease fence's worst case (revocation plus holder expiry).
func (n *Node) runCut(lead *laneWrite) ([]any, error) {
	ref, cut := lead.inv.Ref, lead.batch
	res, err := []opResult(nil), error(core.ErrStopped)
	if !n.closed.Load() {
		bound := 10 * n.waitTimeout()
		if n.leases != nil {
			bound = max(bound, 4*n.leases.ttl)
		}
		ctx, cancel := context.WithTimeout(context.Background(), bound)
		if n.instrumented {
			// One span per cut round, parented to the first caller's trace.
			var span *telemetry.Span
			ctx, span = n.tracer.Start(telemetry.ContextWithSpan(ctx,
				telemetry.SpanFromContext(lead.ctx)), telemetry.SpanSMRBatch)
			span.SetAttr(telemetry.AttrObjectType, ref.Type)
			span.SetAttr(telemetry.AttrBatchSize, fmt.Sprint(len(cut)))
			defer span.End()
		}
		invs := make([]core.Invocation, len(cut))
		for i, w := range cut {
			invs[i] = w.inv
		}
		// The group comes from the view at cut time, not at routing time.
		group, view := n.replicaGroup(ref, lead.inv.Persist)
		var ordered bool
		if res, ordered, err = n.runRound(ctx, group, view, invs); ordered {
			n.cBatches.Inc() // counted like smr_rounds, from the local apply on
			n.hBatchSize.ObserveValue(int64(len(cut)))
		}
		if err != nil && ctx.Err() != nil && !errors.Is(err, core.ErrStopped) {
			// The cut's own bound ran out, not a caller's patience: the
			// writes may still deliver, so their callers must retry.
			err = fmt.Errorf("%w: round for %s outlived its bound: %v", core.ErrRebalancing, ref, err)
		}
		cancel()
	}
	n.freeSlot(ref)
	for i, w := range cut[1:] {
		w.out = opResult{err: err}
		if err == nil {
			w.out = res[i+1]
		}
		w.ready <- struct{}{}
	}
	lead.recycle()
	if err != nil {
		return nil, err
	}
	return res[0].results, res[0].err
}

// recycle returns a write nobody refers to any more to the pool.
func (w *laneWrite) recycle() {
	w.ctx, w.inv, w.batch, w.out = nil, core.Invocation{}, nil, opResult{}
	laneWrites.Put(w)
}
