package statefun

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crucial/internal/core"
	"crucial/internal/telemetry"
)

// Handler processes one message addressed to an instance of its function
// type. Side effects must go through the Ctx (state update, sends,
// reply): they commit atomically after the handler returns nil, so a
// crash, panic or error mid-handler leaves no partial effects and the
// message is redelivered. Handlers therefore run at-least-once and must
// not mutate anything outside the Ctx.
type Handler func(c *Ctx, m Msg) error

// ErrNoHandler is returned when a message targets a function type with
// no registered handler.
var ErrNoHandler = errors.New("statefun: no handler registered for function type")

// HandlerSet maps function types to their handlers.
type HandlerSet struct {
	mu sync.RWMutex
	m  map[string]Handler
}

// NewHandlerSet builds an empty handler set.
func NewHandlerSet() *HandlerSet { return &HandlerSet{m: make(map[string]Handler)} }

// Register adds the handler for fnType; re-registering a type is an error.
func (s *HandlerSet) Register(fnType string, h Handler) error {
	if err := ValidateFnType(fnType); err != nil {
		return err
	}
	if h == nil {
		return errors.New("statefun: nil handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[fnType]; dup {
		return fmt.Errorf("statefun: function type %q already registered", fnType)
	}
	s.m[fnType] = h
	return nil
}

// Lookup returns the handler for fnType, or nil.
func (s *HandlerSet) Lookup(fnType string) Handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[fnType]
}

// Msg is the message view handed to a handler.
type Msg struct {
	env Envelope
}

// Name returns the message name the sender chose.
func (m Msg) Name() string { return m.env.Name }

// Sender returns the sending principal's identity (a peer instance's
// mailbox key, or a client identity).
func (m Msg) Sender() string { return m.env.From }

// ReplyKey returns the reply-future key the sender is waiting on, or ""
// for a fire-and-forget message. Handlers may answer immediately via
// Ctx.Reply or stash the key in state and answer later via Ctx.SendReply.
func (m Msg) ReplyKey() string { return m.env.ReplyTo }

// RawBody returns the encoded message body.
func (m Msg) RawBody() []byte { return m.env.Body }

// Body decodes the message body into v.
func (m Msg) Body(v any) error { return DecodeBody(m.env.Body, v) }

// Ctx collects one handler run's effects: the state update, outgoing
// sends and replies. Nothing is visible to anyone until the runner
// commits the whole set as one mailbox invocation.
type Ctx struct {
	ctx      context.Context
	inv      core.Invoker
	self     Address
	task     Task
	newState []byte
	setState bool
	sends    []Envelope
}

// Context returns the invocation context (cancelled on engine shutdown
// or FaaS timeout).
func (c *Ctx) Context() context.Context { return c.ctx }

// Self returns the address of the running instance.
func (c *Ctx) Self() Address { return c.self }

// Invoker returns the DSO client, for handlers that read or write shared
// objects beyond their private state. Such calls take effect immediately
// and are NOT covered by the commit atomicity — prefer private state and
// sends where exactly-once matters.
func (c *Ctx) Invoker() core.Invoker { return c.inv }

// State decodes the instance's private state into v, reporting whether
// any state exists yet.
func (c *Ctx) State(v any) (bool, error) {
	if !c.task.HasState {
		return false, nil
	}
	if err := DecodeBody(c.task.State, v); err != nil {
		return true, err
	}
	return true, nil
}

// SetState stages v as the instance's new private state.
func (c *Ctx) SetState(v any) error {
	data, err := EncodeBody(v)
	if err != nil {
		return err
	}
	c.newState = data
	c.setState = true
	return nil
}

// Send stages a message to another instance (or to self); it is
// enqueued via the outbox after commit, exactly once.
func (c *Ctx) Send(to Address, name string, body any) error {
	if err := ValidateAddress(to); err != nil {
		return err
	}
	data, err := EncodeBody(body)
	if err != nil {
		return err
	}
	c.sends = append(c.sends, Envelope{To: to, Name: name, Body: data})
	return nil
}

// SendReply stages a reply body for the future stored under key (a
// ReplyKey captured from an earlier message).
func (c *Ctx) SendReply(key string, body any) error {
	if key == "" {
		return errors.New("statefun: empty reply key")
	}
	data, err := EncodeBody(body)
	if err != nil {
		return err
	}
	c.sends = append(c.sends, Envelope{To: Address{FnType: ReplyFnType, ID: key}, Body: data})
	return nil
}

// Reply stages a reply to the current message's sender; it is an error
// if the message carries no reply key.
func (c *Ctx) Reply(body any) error {
	if c.task.Env.ReplyTo == "" {
		return errors.New("statefun: message has no reply key")
	}
	return c.SendReply(c.task.Env.ReplyTo, body)
}

// RunReport is what a runner tells the dispatch engine about one drain
// pass: how many messages committed and what is left queued or
// undelivered.
type RunReport struct {
	Processed int64
	QueueLen  int64
	OutboxLen int64
}

// Encode returns the report as a drain pass's reply (DecodeRunReport).
func (r RunReport) Encode() []byte {
	b := core.NewFrame(tagRunReport, 0, 3)
	return core.AppendVarint(core.AppendVarint(core.AppendVarint(b, r.Processed), r.QueueLen), r.OutboxLen)
}

// DecodeRunReport parses exactly one RunReport.Encode frame.
func DecodeRunReport(data []byte) (RunReport, error) {
	v, err := core.DecodeFrame(data, tagRunReport, func(r *core.Reader) (rep RunReport, err error) {
		for _, f := range []*int64{&rep.Processed, &rep.QueueLen, &rep.OutboxLen} {
			if err == nil {
				*f, err = r.Varint()
			}
		}
		return rep, err
	})
	if err != nil {
		return RunReport{}, decodeError("run report", err)
	}
	return v, nil
}

// Runner executes one drain pass over an instance's mailbox. The engine
// treats it as a black box so the same scheduler drives both in-process
// execution (Proc) and FaaS-shipped execution (the runtime's runner
// function).
type Runner interface {
	Run(ctx context.Context, addr Address) (RunReport, error)
}

// Proc executes instances in-process against a DSO client: fetch the
// head message, run the handler, commit the effect set, forward the
// outbox. It is safe for concurrent use and safe to run in several
// processes at once — a doubly-dispatched instance costs a redundant
// handler run whose commit is a no-op, never a double-applied effect.
type Proc struct {
	inv        core.Invoker
	handlers   *HandlerSet
	mailboxCap int64
	maxBatch   int

	cMessages     *telemetry.Counter
	cSends        *telemetry.Counter
	cReplies      *telemetry.Counter
	cFull         *telemetry.Counter
	cFailures     *telemetry.Counter
	cRedeliveries *telemetry.Counter
	hDispatch     *telemetry.Histogram
}

// ProcOptions configures a Proc.
type ProcOptions struct {
	// MailboxCap is the queue capacity for mailboxes the proc creates
	// when forwarding (0 = DefaultMailboxCap).
	MailboxCap int64
	// MaxBatch bounds how many messages one Run drains before yielding
	// the worker (0 = 32).
	MaxBatch int
	// Metrics receives the statefun.* counters (nil = private registry).
	Metrics *telemetry.Registry
}

// NewProc builds a runner executing handlers in-process.
func NewProc(inv core.Invoker, handlers *HandlerSet, opts ProcOptions) *Proc {
	if opts.MailboxCap <= 0 {
		opts.MailboxCap = DefaultMailboxCap
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 32
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Proc{
		inv:           inv,
		handlers:      handlers,
		mailboxCap:    opts.MailboxCap,
		maxBatch:      opts.MaxBatch,
		cMessages:     reg.Counter(telemetry.MetStatefunMessages),
		cSends:        reg.Counter(telemetry.MetStatefunSends),
		cReplies:      reg.Counter(telemetry.MetStatefunReplies),
		cFull:         reg.Counter(telemetry.MetStatefunMailboxFull),
		cFailures:     reg.Counter(telemetry.MetStatefunHandlerFailures),
		cRedeliveries: reg.Counter(telemetry.MetStatefunRedeliveries),
		hDispatch:     reg.Histogram(telemetry.HistStatefunDispatch),
	}
}

// Run drains up to MaxBatch messages from the instance's mailbox. It
// stops when a commit reports the queue empty, without a closing Fetch:
// the pop and the length come from one mailbox invocation, so a push
// that lands after it sees QueueLen 1 and activates the instance again.
func (p *Proc) Run(ctx context.Context, addr Address) (RunReport, error) {
	var report RunReport
	for n := 0; n < p.maxBatch; n++ {
		task, err := p.fetch(ctx, addr)
		if err != nil {
			return report, err
		}
		report.QueueLen = task.QueueLen
		report.OutboxLen = task.OutLen
		if !task.Has {
			// Nothing queued, but a previous run (possibly on a crashed
			// node) may have committed effects it never forwarded.
			if task.OutLen > 0 {
				pending, err := p.pendingOutbox(ctx, addr)
				if err != nil {
					return report, err
				}
				if err := p.deliver(ctx, addr, pending, &report); err != nil {
					return report, err
				}
			}
			return report, nil
		}
		h := p.handlers.Lookup(addr.FnType)
		if h == nil {
			return report, fmt.Errorf("%w: %q", ErrNoHandler, addr.FnType)
		}
		started := time.Now()
		c := &Ctx{ctx: ctx, inv: p.inv, self: addr, task: task}
		if err := runHandler(h, c, Msg{env: task.Env}); err != nil {
			p.cFailures.Inc()
			return report, fmt.Errorf("statefun: handler %s: %w", addr, err)
		}
		res, err := p.commit(ctx, addr, CommitReq{
			EnqSeq:   task.EnqSeq,
			From:     addr.Key(),
			State:    c.newState,
			SetState: c.setState,
			Sends:    c.sends,
		})
		if err != nil {
			return report, err
		}
		if res.Applied {
			report.Processed++
			p.cMessages.Inc()
			p.hDispatch.Observe(time.Since(started))
		} else {
			p.cRedeliveries.Inc()
		}
		report.QueueLen = res.QueueLen
		report.OutboxLen = int64(len(res.Pending))
		if err := p.deliver(ctx, addr, res.Pending, &report); err != nil {
			return report, err
		}
		if res.QueueLen == 0 {
			break
		}
	}
	return report, nil
}

// runHandler runs h with panic containment, so a panicking handler is a
// redelivered message, not a dead dispatcher.
func runHandler(h Handler, c *Ctx, m Msg) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	return h(c, m)
}

// deliver forwards pending outbox entries in sequence order, activating
// each destination whose queue the push made nonempty. A full
// destination suspends only its own later entries (ordering is
// per-destination, and skipping everything would let two backpressuring
// instances head-of-line-block each other forever); any other failure
// stops the pass. The contiguous delivered prefix is then acked —
// entries delivered past a skipped one stay in the outbox and dedup as
// PushDup when resent.
func (p *Proc) deliver(ctx context.Context, addr Address, pending []OutEntry, report *RunReport) error {
	var acked uint64
	var ackedCount int
	contiguous := true
	var full map[string]bool
	var stopErr error
deliverLoop:
	for _, e := range pending {
		if e.Env.To.FnType == ReplyFnType {
			if err := DeliverReply(ctx, p.inv, e.Env); err != nil {
				stopErr = err
				break
			}
			p.cReplies.Inc()
		} else {
			if full[e.Env.To.Key()] {
				// An earlier entry bounced off this destination's capacity;
				// keep its later entries queued to preserve their order.
				contiguous = false
				continue
			}
			res, err := PushEnvelope(ctx, p.inv, e.Env, p.mailboxCap)
			if err != nil {
				stopErr = err
				break
			}
			switch res.Status {
			case PushFull:
				// Backpressure: leave this destination's entries in the
				// outbox; the next run retries them in order.
				p.cFull.Inc()
				if full == nil {
					full = make(map[string]bool)
				}
				full[e.Env.To.Key()] = true
				contiguous = false
				continue
			case PushOK:
				p.cSends.Inc()
				if res.QueueLen == 1 {
					if err := activate(ctx, p.inv, e.Env.To); err != nil {
						stopErr = err
						break deliverLoop
					}
				}
			case PushDup:
				// The push applied on an earlier attempt that may have died
				// between pushing and activating the destination, so the
				// QueueLen==1 transition is unobservable now. Activation
				// is idempotent: activate whenever the queue is nonempty
				// rather than strand the message.
				if res.QueueLen > 0 {
					if err := activate(ctx, p.inv, e.Env.To); err != nil {
						stopErr = err
						break deliverLoop
					}
				}
			}
		}
		if contiguous {
			acked = e.Seq
			ackedCount++
		}
	}
	if acked > 0 {
		if err := p.ackOut(ctx, addr, acked); err != nil {
			return err
		}
		report.OutboxLen = int64(len(pending) - ackedCount)
	}
	return stopErr
}

// fetch reads the instance's head task (read-only, lease-cacheable).
func (p *Proc) fetch(ctx context.Context, addr Address) (Task, error) {
	res, err := p.inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: TypeMailbox, Key: addr.Key()},
		Method:  "Fetch",
		Init:    []any{p.mailboxCap},
		Persist: true,
	})
	return decodeResult(res, err, decodeTask)
}

// commit applies one handler run's effect set.
func (p *Proc) commit(ctx context.Context, addr Address, req CommitReq) (CommitResult, error) {
	res, err := p.inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: TypeMailbox, Key: addr.Key()},
		Method:  "Commit",
		Args:    []any{req.encode()},
		Init:    []any{p.mailboxCap},
		Persist: true,
	})
	return decodeResult(res, err, decodeCommitResult)
}

// pendingOutbox reads the undelivered outbox entries.
func (p *Proc) pendingOutbox(ctx context.Context, addr Address) ([]OutEntry, error) {
	res, err := p.inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: TypeMailbox, Key: addr.Key()},
		Method:  "Outbox",
		Init:    []any{p.mailboxCap},
		Persist: true,
	})
	return decodeResult(res, err, decodeOutbox)
}

// ackOut prunes delivered outbox entries up to and including seq upTo.
func (p *Proc) ackOut(ctx context.Context, addr Address, upTo uint64) error {
	_, err := p.inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: TypeMailbox, Key: addr.Key()},
		Method:  "AckOut",
		Args:    []any{int64(upTo)},
		Init:    []any{p.mailboxCap},
		Persist: true,
	})
	return err
}

// StateOf reads an instance's private state into v (read-only),
// reporting whether any state exists.
func StateOf(ctx context.Context, inv core.Invoker, addr Address, mailboxCap int64, v any) (bool, error) {
	if mailboxCap <= 0 {
		mailboxCap = DefaultMailboxCap
	}
	res, err := inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: TypeMailbox, Key: addr.Key()},
		Method:  "Fetch",
		Init:    []any{mailboxCap},
		Persist: true,
	})
	task, err := decodeResult(res, err, decodeTask)
	if err != nil || !task.HasState {
		return false, err
	}
	return true, DecodeBody(task.State, v)
}

// StatusOf reads the instance's mailbox status (read-only).
func StatusOf(ctx context.Context, inv core.Invoker, addr Address, mailboxCap int64) (MailboxStatus, error) {
	if mailboxCap <= 0 {
		mailboxCap = DefaultMailboxCap
	}
	res, err := inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: TypeMailbox, Key: addr.Key()},
		Method:  "Status",
		Init:    []any{mailboxCap},
		Persist: true,
	})
	return decodeResult(res, err, decodeStatus)
}
