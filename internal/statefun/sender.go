package statefun

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"crucial/internal/core"
	"crucial/internal/objects"
)

// ErrMailboxFull is returned when a push bounces off the destination
// queue's capacity; the message was not enqueued and may be resent.
var ErrMailboxFull = errors.New("statefun: mailbox full")

// Sender is the client-side sending half of the layer: it allocates
// per-destination monotonic sequence numbers under a per-destination
// lock (the dedup windows are max-seq based, so sends to one mailbox
// must land in order), pushes through the at-most-once write path, and
// activates newly-nonempty instances (see activate).
type Sender struct {
	inv        core.Invoker
	from       string
	mailboxCap int64

	mu    sync.Mutex
	dests map[string]*destStream
}

// destStream serializes sends to one destination mailbox.
type destStream struct {
	mu   sync.Mutex
	next uint64
	// needAct records an activation that a previous Send owed (its push
	// made the queue nonempty, or errored and may have) but failed to
	// complete; the next Send
	// retries it regardless of the queue length it observes, so a
	// transient failure cannot strand a durably-enqueued message outside
	// the directory and the doorbell.
	needAct bool
	// listed records that this sender has put the destination in the
	// directory (see Send).
	listed bool
}

// NewSender builds a sender whose envelopes carry the given identity
// (unique per sending principal, e.g. derived from the DSO client id)
// and whose lazily-created mailboxes get the given capacity (0 = default).
func NewSender(inv core.Invoker, from string, mailboxCap int64) *Sender {
	if mailboxCap <= 0 {
		mailboxCap = DefaultMailboxCap
	}
	return &Sender{inv: inv, from: from, mailboxCap: mailboxCap, dests: make(map[string]*destStream)}
}

// From returns the sender identity stamped on outgoing envelopes.
func (s *Sender) From() string { return s.from }

// stream returns the per-destination sequencer for key.
func (s *Sender) stream(key string) *destStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dests[key]
	if d == nil {
		d = &destStream{}
		s.dests[key] = d
	}
	return d
}

// Send enqueues one message for (to.FnType, to.ID). A nil error means the
// message is durably enqueued exactly once; ErrMailboxFull means it was
// rejected and not enqueued; any other error leaves it in doubt (at most
// once — resending may deliver it twice under a new sequence number).
func (s *Sender) Send(ctx context.Context, to Address, name string, body []byte, replyTo string) error {
	if err := ValidateAddress(to); err != nil {
		return err
	}
	d := s.stream(to.Key())
	d.mu.Lock()
	defer d.mu.Unlock()
	// The sequence number is burned even on error: an errored push may
	// still have applied, so reusing its number for the next message
	// could get that message wrongly deduped away.
	d.next++
	env := Envelope{To: to, From: s.from, Seq: d.next, Name: name, Body: body, ReplyTo: replyTo}
	res, err := PushEnvelope(ctx, s.inv, env, s.mailboxCap)
	if err != nil {
		// The push may have applied and made the queue nonempty, and the
		// next push would then find it longer than 1: activate on that
		// one regardless.
		d.needAct = true
		return err
	}
	switch res.Status {
	case PushFull:
		return fmt.Errorf("%w: %s", ErrMailboxFull, to)
	case PushOK:
		switch {
		case res.QueueLen == 1 || d.needAct:
			return s.activate(ctx, d, to)
		case !d.listed:
			// The queue was nonempty, so the push that made it so owes the
			// activation. If that sender dies first, only a re-list finds
			// this message, so list the instance before acking it.
			if err := RegisterInstance(ctx, s.inv, to); err != nil {
				return err
			}
			d.listed = true
		}
	case PushDup:
		// A retry of a push whose first attempt errored after applying —
		// and possibly before the activation it owed. Activation is
		// idempotent, so activate again while the queue is nonempty rather
		// than strand the message.
		if res.QueueLen > 0 || d.needAct {
			return s.activate(ctx, d, to)
		}
	}
	return nil
}

// activate completes the activation owed for to, remembering a failure
// in d so a later Send retries it.
func (s *Sender) activate(ctx context.Context, d *destStream, to Address) error {
	d.needAct = true
	if err := activate(ctx, s.inv, to); err != nil {
		return err
	}
	d.needAct = false
	d.listed = true
	return nil
}

// Call sends a request message carrying a fresh reply future and blocks
// until the handler (or one of its downstream functions) completes it,
// returning the raw reply body.
func (s *Sender) Call(ctx context.Context, to Address, name string, body []byte, replyKey string) ([]byte, error) {
	if err := s.Send(ctx, to, name, body, replyKey); err != nil {
		return nil, err
	}
	return AwaitReply(ctx, s.inv, replyKey)
}

// PushEnvelope ships one envelope to its destination mailbox (creating
// the mailbox with the given capacity on first touch). Mailboxes are
// persistent objects: replicated, WAL-logged, and rebalanceable.
func PushEnvelope(ctx context.Context, inv core.Invoker, env Envelope, mailboxCap int64) (PushResult, error) {
	if mailboxCap <= 0 {
		mailboxCap = DefaultMailboxCap
	}
	res, err := inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: TypeMailbox, Key: env.To.Key()},
		Method:  "Push",
		Args:    []any{env.encode()},
		Init:    []any{mailboxCap},
		Persist: true,
	})
	return decodeResult(res, err, decodePushResult)
}

// activate is the one wake-up path: every push that takes a mailbox from
// empty to nonempty (a Sender's, or a runner forwarding its outbox) lists
// the instance in the directory, so an engine that re-lists finds it,
// then rings the doorbell, so every waiting engine drains it now. Both
// steps are idempotent; a caller whose activation failed repeats it.
func activate(ctx context.Context, inv core.Invoker, addr Address) error {
	if err := RegisterInstance(ctx, inv, addr); err != nil {
		return err
	}
	return ringDoorbell(ctx, inv, addr)
}

// RegisterInstance adds the instance to the dispatch directory, where an
// engine's re-list finds it. Registration is idempotent.
func RegisterInstance(ctx context.Context, inv core.Invoker, addr Address) error {
	_, err := inv.InvokeObject(ctx, core.Invocation{
		Ref:     core.Ref{Type: objects.TypeMap, Key: DirectoryKey},
		Method:  "Put",
		Args:    []any{addr.DirEntry(), true},
		Persist: true,
	})
	return err
}

// AwaitReply blocks on the reply future stored under key and returns the
// reply body set by the handler. It takes the future (Future.Take), so
// the owning node frees it once answered. A Take whose response is lost
// cannot be repeated: the retry finds a fresh future and blocks until ctx
// ends, as a reply lost to a node crash does.
func AwaitReply(ctx context.Context, inv core.Invoker, key string) ([]byte, error) {
	res, err := inv.InvokeObject(ctx, core.Invocation{
		Ref:    core.Ref{Type: objects.TypeFuture, Key: key},
		Method: "Take",
	})
	body, err := resultAs[[]byte](res, err)
	if err != nil {
		return nil, err
	}
	return body, nil
}

// DeliverReply completes the reply future named by env.To.ID with the
// envelope body. A future that is already completed counts as delivered
// (the redelivery case), so the outbox entry can be acked. A reply
// redelivered after its Take re-creates one completed future, which
// nothing frees.
func DeliverReply(ctx context.Context, inv core.Invoker, env Envelope) error {
	_, err := inv.InvokeObject(ctx, core.Invocation{
		Ref:    core.Ref{Type: objects.TypeFuture, Key: env.To.ID},
		Method: "Set",
		Args:   []any{env.Body},
	})
	if err != nil && !isFutureAlreadySet(err) {
		return err
	}
	return nil
}
