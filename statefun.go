package crucial

// Stateful functions (DESIGN.md §5i): the event-driven programming model
// layered over DSOs. Where cloud threads (NewThread) port fork/join
// programs, stateful functions port message-driven ones — the
// Cloudburst/Flink-StateFun workload class. A function is registered by
// type and addressed by (fnType, id); each addressed instance owns a
// durable mailbox object holding its inbound queue, its private state,
// and a transactional outbox. Handlers run at least once, but their
// effects (state update + sends + reply) commit atomically as one
// mailbox invocation, so every message is applied exactly once even
// across redeliveries, node crashes, and full-cluster recovery.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"crucial/internal/faas"
	"crucial/internal/statefun"
	"crucial/internal/telemetry"
)

// StatefunRunnerFunction is the name of the serverless function the
// runtime deploys to execute stateful-function drain passes: its payload
// is an instance address; the body fetches, runs the handler, commits,
// and forwards the outbox from inside the container.
const StatefunRunnerFunction = "statefun-runner"

// FnAddress names one function instance: a registered function type plus
// an instance id. An alias of statefun.Address.
type FnAddress = statefun.Address

// FnCtx collects one handler run's effects — state update, sends,
// replies — which commit atomically after the handler returns nil. An
// alias of statefun.Ctx.
type FnCtx = statefun.Ctx

// FnMsg is the message view handed to a handler. An alias of
// statefun.Msg.
type FnMsg = statefun.Msg

// FnHandler processes one message addressed to an instance of its
// function type. Handlers run at least once per message (a crash between
// commit and acknowledgment redelivers), so all effects must go through
// the FnCtx, where they are exactly-once. An alias of statefun.Handler.
type FnHandler = statefun.Handler

// FnStatus is the health view of one instance's mailbox. An alias of
// statefun.MailboxStatus.
type FnStatus = statefun.MailboxStatus

// ErrMailboxFull is returned by sends bounced by a destination mailbox's
// capacity (backpressure); the message was not enqueued.
var ErrMailboxFull = statefun.ErrMailboxFull

// StatefunOptions tunes the stateful-functions layer of a runtime.
type StatefunOptions struct {
	// Workers is the dispatch concurrency (default 8).
	Workers int
	// IdleTTL retires instances idle this long from the dispatch
	// directory; their durable mailboxes survive and re-activate on the
	// next message (default 0 = never retire).
	IdleTTL time.Duration
	// MailboxCap bounds each instance's inbound queue; pushes beyond it
	// fail with ErrMailboxFull (default 1024).
	MailboxCap int64
	// InProcess executes handlers on the dispatcher's own goroutines
	// instead of through the FaaS platform — cheaper, but outside the
	// serverless execution model (and its fault injection).
	InProcess bool
}

// StatefulFunction is the client handle for one registered function
// type: it sends messages into instances and reads their durable state.
type StatefulFunction struct {
	rt     *Runtime
	fnType string
}

// statefunState is the runtime's lazily-built stateful-functions layer.
type statefunState struct {
	handlers *statefun.HandlerSet
	proc     *statefun.Proc
	engine   *statefun.Engine
	sender   *statefun.Sender
	replySeq atomic.Uint64
}

// faasRunner ships drain passes to the FaaS platform, so handler
// execution pays (and measures) the serverless invocation path:
// cold starts, concurrency caps, injected failures and timeouts. A
// failed or timed-out invocation is safe — the engine redispatches, and
// commits already applied turn the rerun into a no-op.
type faasRunner struct {
	platform *faas.Platform
	fn       string
}

// Run invokes the statefun runner function for one drain pass.
func (r faasRunner) Run(ctx context.Context, addr statefun.Address) (statefun.RunReport, error) {
	out, err := r.platform.Invoke(ctx, r.fn, addr.Encode())
	if err != nil {
		return statefun.RunReport{}, err
	}
	return statefun.DecodeRunReport(out)
}

// DeployStatefulFunction registers a handler for fnType and returns its
// handle. The first deployment boots the runtime's dispatch engine and
// (unless StatefunOptions.InProcess) deploys the statefun runner
// function. Deploying a type twice is an error.
func (rt *Runtime) DeployStatefulFunction(fnType string, h FnHandler) (*StatefulFunction, error) {
	rt.sfMu.Lock()
	defer rt.sfMu.Unlock()
	if rt.sf == nil {
		sf, err := rt.startStatefun()
		if err != nil {
			return nil, err
		}
		rt.sf = sf
	}
	if err := rt.sf.handlers.Register(fnType, h); err != nil {
		return nil, err
	}
	return &StatefulFunction{rt: rt, fnType: fnType}, nil
}

// startStatefun builds the handler set, the in-container executor, the
// dispatch engine, and the sending half. Callers hold rt.sfMu.
func (rt *Runtime) startStatefun() (*statefunState, error) {
	var metrics *telemetry.Registry
	if rt.tel != nil {
		metrics = rt.tel.Metrics()
	}
	sf := &statefunState{handlers: statefun.NewHandlerSet()}
	sf.proc = statefun.NewProc(rt.fnClient, sf.handlers, statefun.ProcOptions{
		MailboxCap: rt.sfOpts.MailboxCap,
		Metrics:    metrics,
	})
	runner := statefun.Runner(sf.proc)
	if !rt.sfOpts.InProcess {
		err := rt.platform.Deploy(StatefunRunnerFunction, rt.statefunRunnerHandler, faas.FunctionConfig{})
		if err != nil {
			return nil, err
		}
		runner = faasRunner{platform: rt.platform, fn: StatefunRunnerFunction}
	}
	sf.engine = statefun.NewEngine(statefun.EngineConfig{
		Invoker:    rt.masterClient,
		Runner:     runner,
		Workers:    rt.sfOpts.Workers,
		IdleTTL:    rt.sfOpts.IdleTTL,
		MailboxCap: rt.sfOpts.MailboxCap,
		Metrics:    metrics,
	})
	sf.sender = statefun.NewSender(rt.masterClient,
		fmt.Sprintf("client/%016x", rt.masterClient.ID()), rt.sfOpts.MailboxCap)
	return sf, nil
}

// statefunRunnerHandler is the statefun runner function body: decode the
// instance address, drain its mailbox from inside the container.
func (rt *Runtime) statefunRunnerHandler(ctx context.Context, payload []byte) ([]byte, error) {
	addr, err := statefun.DecodeAddress(payload)
	if err != nil {
		return nil, err
	}
	rt.sfMu.Lock()
	sf := rt.sf
	rt.sfMu.Unlock()
	if sf == nil {
		return nil, fmt.Errorf("crucial: stateful functions not deployed")
	}
	report, err := sf.proc.Run(ctx, addr)
	if err != nil {
		return nil, err
	}
	return report.Encode(), nil
}

// closeStatefun stops the dispatch engine (idempotent).
func (rt *Runtime) closeStatefun() {
	rt.sfMu.Lock()
	sf := rt.sf
	rt.sf = nil
	rt.sfMu.Unlock()
	if sf != nil {
		sf.engine.Close()
	}
}

// Address returns the full address of instance id.
func (f *StatefulFunction) Address(id string) FnAddress {
	return FnAddress{FnType: f.fnType, ID: id}
}

// Send enqueues one message for instance id, exactly once on nil error:
// the push rides the at-most-once invocation path and the mailbox's
// per-sender dedup window. ErrMailboxFull reports backpressure (nothing
// enqueued); other errors leave the message in doubt.
func (f *StatefulFunction) Send(ctx context.Context, id, name string, body any) error {
	data, err := statefun.EncodeBody(body)
	if err != nil {
		return err
	}
	return f.sender().Send(ctx, f.Address(id), name, data, "")
}

// Call sends a request message and blocks until the handler — or a
// downstream function it forwarded the reply key to — replies, decoding
// the reply body into reply (which may be nil to discard it). Replies
// travel through reply futures, which are coordination objects, not
// durable ones: a reply lost to a node crash leaves Call blocked until
// ctx cancels, even though the request itself remains exactly-once.
// Call takes its future, so the node holding it frees it once answered.
func (f *StatefulFunction) Call(ctx context.Context, id, name string, body, reply any) error {
	data, err := statefun.EncodeBody(body)
	if err != nil {
		return err
	}
	sf := f.rt.statefun()
	replyKey := fmt.Sprintf("statefun/reply/%s/%d", sf.sender.From(), sf.replySeq.Add(1))
	if err := sf.sender.Send(ctx, f.Address(id), name, data, replyKey); err != nil {
		return err
	}
	raw, err := statefun.AwaitReply(ctx, f.rt.masterClient, replyKey)
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return statefun.DecodeBody(raw, reply)
}

// State reads instance id's durable private state into v, reporting
// whether the instance has any state yet.
func (f *StatefulFunction) State(ctx context.Context, id string, v any) (bool, error) {
	return statefun.StateOf(ctx, f.rt.masterClient, f.Address(id), f.rt.sfOpts.MailboxCap, v)
}

// Status reads instance id's mailbox health view.
func (f *StatefulFunction) Status(ctx context.Context, id string) (FnStatus, error) {
	return statefun.StatusOf(ctx, f.rt.masterClient, f.Address(id), f.rt.sfOpts.MailboxCap)
}

// sender returns the runtime's sending half.
func (f *StatefulFunction) sender() *statefun.Sender { return f.rt.statefun().sender }

// statefun returns the built layer (panics if no function was deployed —
// handles only exist after DeployStatefulFunction).
func (rt *Runtime) statefun() *statefunState {
	rt.sfMu.Lock()
	defer rt.sfMu.Unlock()
	if rt.sf == nil {
		panic("crucial: stateful functions not deployed")
	}
	return rt.sf
}
