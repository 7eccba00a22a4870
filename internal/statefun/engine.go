package statefun

import (
	"context"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/objects"
	"crucial/internal/telemetry"
)

// Engine is the dispatch loop of the layer. It parks on the doorbell and
// runs drain passes for the instances it is offered: an instance runs
// again at once while its passes leave work behind or new offers arrive
// during them, after a doubling delay (retryDelay up to maxRetryDelay)
// while its passes fail or make no progress, and not at all while idle.
// The directory is listed, and every listed instance gets a pass, when
// the doorbell cannot say what changed — a nonce the engine has not
// seen, a cursor that fell out of its ring, or a Wait that failed — and
// every relistEvery besides, for activations whose offer was lost
// without the nonce changing. With an idle TTL, a coarse timer retires
// instances idle that long.
//
// Engines are soft state: every fact they hold is reconstructable from
// the directory and the mailboxes, so an engine can crash, restart or
// run beside other engines without affecting correctness — a redundant
// dispatch costs one no-op commit.
type Engine struct {
	cfg    EngineConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	ready     *sync.Cond  // signalled when queue grows or the engine closes
	queue     []*instance // instances waiting for a worker
	closed    bool
	instances map[Address]*instance

	cGC *telemetry.Counter
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Invoker is the DSO client used for the doorbell, directory reads
	// and GC.
	Invoker core.Invoker
	// Runner executes drain passes (Proc, or the runtime's FaaS runner).
	Runner Runner
	// Workers is the drain-pass concurrency (0 = 8).
	Workers int
	// IdleTTL retires instances idle this long from the directory
	// (0 = never).
	IdleTTL time.Duration
	// MailboxCap is passed to mailbox constructors during GC rechecks
	// (0 = DefaultMailboxCap).
	MailboxCap int64
	// Metrics receives the engine's counters (nil = private registry).
	Metrics *telemetry.Registry
}

const (
	// retryDelay is the first delay before re-running an instance whose
	// pass failed or made no progress; the delay doubles with each such
	// pass up to maxRetryDelay and resets on progress. A failed doorbell
	// Wait is also retried after retryDelay.
	retryDelay    = 50 * time.Millisecond
	maxRetryDelay = 250 * time.Millisecond
	// relistEvery bounds how long an acked message can wait when the
	// offer of the push that activated its instance was lost while the
	// doorbell kept its nonce: the activating caller failed between its
	// directory Put and its Offer, or its Offer reached a stale owner.
	// Later pushes find the queue nonempty and do not ring.
	relistEvery = 5 * time.Second
	// waitTimeout bounds one doorbell Wait from the engine's side, in
	// case a waiter misses the end of its park (see Doorbell).
	waitTimeout = 10 * doorbellPark
)

// instance is the engine's soft state about one function instance.
type instance struct {
	addr      Address
	busy      bool          // queued, in a pass, or waiting out its backoff
	again     bool          // an offer arrived while busy
	backoff   time.Duration // delay before the next pass after a failed or stuck one
	idleSince time.Time     // when the last pass left the instance empty
}

// NewEngine starts an engine; Close stops it.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.MailboxCap <= 0 {
		cfg.MailboxCap = DefaultMailboxCap
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		instances: make(map[Address]*instance),
		cGC:       reg.Counter(telemetry.MetStatefunInstancesGC),
	}
	e.ready = sync.NewCond(&e.mu)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	e.wg.Add(1)
	go e.listen()
	if cfg.IdleTTL > 0 {
		e.wg.Add(1)
		go e.retireIdle()
	}
	return e
}

// Close stops the engine and waits for in-flight drain passes.
func (e *Engine) Close() {
	e.cancel()
	e.mu.Lock()
	e.closed = true
	e.ready.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// listen follows the doorbell: each Wait returns the offers after the
// engine's cursor, and each offered instance is dispatched. The
// directory is listed after a Wait that reports a nonce the engine has
// not seen or a cursor outside the ring, after a failed Wait (the
// doorbell may have moved with offers made at a stale owner), and
// relistEvery after the last listing. The nonce is adopted, and the
// listing timer reset, only once a listing succeeds, so a failed one is
// retried. Errors are waited out — the engine must ride out
// full-cluster-down windows.
func (e *Engine) listen() {
	defer e.wg.Done()
	var nonce, cursor uint64
	var listed time.Time // the last successful listing; zero forces one
	for e.ctx.Err() == nil {
		ctx, cancel := context.WithTimeout(e.ctx, waitTimeout)
		w, err := waitDoorbell(ctx, e.cfg.Invoker, nonce, cursor)
		cancel()
		if err != nil {
			listed = time.Time{}
		} else if w.Relist || w.Nonce != nonce || time.Since(listed) >= relistEvery {
			if err = e.relist(); err == nil {
				nonce, listed = w.Nonce, time.Now()
			}
		}
		if err != nil {
			sleep(e.ctx, retryDelay)
			continue
		}
		cursor = w.Head
		for _, addr := range w.Ready {
			e.dispatch(addr)
		}
	}
}

// relist dispatches every instance in the directory.
func (e *Engine) relist() error {
	res, err := e.cfg.Invoker.InvokeObject(e.ctx, core.Invocation{
		Ref:     core.Ref{Type: objects.TypeMap, Key: DirectoryKey},
		Method:  "Keys",
		Persist: true,
	})
	keys, err := resultAs[[]string](res, err)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if addr, ok := AddressFromDirEntry(k); ok {
			e.dispatch(addr)
		}
	}
	return nil
}

// dispatch queues a pass for addr, or, if the instance is already busy,
// asks for one more after the current one.
func (e *Engine) dispatch(addr Address) {
	e.mu.Lock()
	defer e.mu.Unlock()
	inst := e.instances[addr]
	if inst == nil {
		inst = &instance{addr: addr}
		e.instances[addr] = inst
	}
	if inst.busy {
		inst.again = true
		return
	}
	inst.busy = true
	e.enqueueLocked(inst)
}

// enqueueLocked hands inst to a worker; callers hold e.mu.
func (e *Engine) enqueueLocked(inst *instance) {
	e.queue = append(e.queue, inst)
	e.ready.Signal()
}

// worker runs drain passes for queued instances until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.ready.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		inst := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		report, err := e.cfg.Runner.Run(e.ctx, inst.addr)
		e.settle(inst, report, err)
	}
}

// settle folds a pass's outcome into the instance: queue it again at
// once, again after its backoff, or leave it idle.
func (e *Engine) settle(inst *instance, report RunReport, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	again := inst.again
	inst.again = false
	pending := report.QueueLen > 0 || report.OutboxLen > 0
	switch {
	case err != nil || (pending && report.Processed == 0):
		// Failed, or stuck: e.g. an outbox blocked by a full destination.
		inst.backoff = min(max(2*inst.backoff, retryDelay), maxRetryDelay)
		time.AfterFunc(inst.backoff, func() {
			e.mu.Lock()
			defer e.mu.Unlock()
			e.enqueueLocked(inst)
		})
	case pending || again:
		inst.backoff = 0
		e.enqueueLocked(inst)
	default:
		inst.backoff = 0
		inst.busy = false
		inst.idleSince = time.Now()
	}
}

// retireIdle retires, on a coarse timer, the instances idle past the TTL.
func (e *Engine) retireIdle() {
	defer e.wg.Done()
	tick := time.NewTicker(max(e.cfg.IdleTTL/2, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-e.ctx.Done():
			return
		case now := <-tick.C:
			for _, addr := range e.idle(now) {
				e.retire(addr)
			}
		}
	}
}

// idle lists the instances that have had no pass for the TTL.
func (e *Engine) idle(now time.Time) []Address {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Address
	for addr, inst := range e.instances {
		if !inst.busy && now.Sub(inst.idleSince) >= e.cfg.IdleTTL {
			out = append(out, addr)
		}
	}
	return out
}

// retire removes an idle instance from the directory, then re-checks its
// mailbox: a message that raced in is covered either by the sender's own
// activation (pushes that find the queue empty list the instance again)
// or by the recheck listing and dispatching it here. Only a still-empty,
// still-idle instance is forgotten.
func (e *Engine) retire(addr Address) {
	if _, err := e.cfg.Invoker.InvokeObject(e.ctx, core.Invocation{
		Ref:     core.Ref{Type: objects.TypeMap, Key: DirectoryKey},
		Method:  "Remove",
		Args:    []any{addr.DirEntry()},
		Persist: true,
	}); err != nil {
		return
	}
	st, err := StatusOf(e.ctx, e.cfg.Invoker, addr, e.cfg.MailboxCap)
	if err != nil {
		return
	}
	if st.QueueLen > 0 || st.OutboxLen > 0 {
		if RegisterInstance(e.ctx, e.cfg.Invoker, addr) == nil {
			e.dispatch(addr)
		}
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if inst := e.instances[addr]; inst != nil && !inst.busy && time.Since(inst.idleSince) >= e.cfg.IdleTTL {
		delete(e.instances, addr)
		e.cGC.Inc()
	}
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Instances returns how many instances the engine currently tracks.
func (e *Engine) Instances() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.instances)
}
