package statefun

import (
	"encoding/binary"
	"fmt"

	"crucial/internal/core"
)

// DefaultMailboxCap is the queue capacity used when the constructor is
// given none; pushes beyond it bounce with PushFull (backpressure).
const DefaultMailboxCap = 1024

// queuedMsg is one enqueued message plus the monotonically increasing
// enqueue sequence number that identifies it to Commit.
type queuedMsg struct {
	EnqSeq uint64
	Env    Envelope
}

// Mailbox is the durable heart of one function instance: a bounded FIFO
// of inbound envelopes, the instance's private state blob, a per-sender
// max-seq dedup window, and a transactional outbox. Every mutation is a
// single SMR invocation, so the PR 6 group-commit path batches it, the
// PR 9 WAL logs it, and replication/recovery replay it idempotently.
//
// The exactly-once-visible argument (DESIGN.md §5i) rests on three
// properties enforced here: Push rejects any envelope whose (From, Seq)
// is at or below the sender's high-water mark; Commit pops the head only
// if its enqueue sequence still matches (so a redelivered handler run
// commits as a no-op); and outbox entries get their sequence numbers
// assigned exactly once, at first commit, so resending them after a
// crash dedupes at the destination.
type Mailbox struct {
	capacity  int64
	queue     []queuedMsg
	nextEnq   uint64
	state     []byte
	hasState  bool
	seen      map[string]uint64
	outbox    []OutEntry
	nextOut   uint64
	processed int64
	dups      int64
	rejected  int64
}

// NewMailbox builds a mailbox; an optional first init argument overrides
// the queue capacity.
func NewMailbox(init []any) (core.Object, error) {
	capacity := int64(DefaultMailboxCap)
	if len(init) > 0 {
		c, err := core.Int64Arg(init, 0)
		if err != nil {
			return nil, err
		}
		if c > 0 {
			capacity = c
		}
	}
	return &Mailbox{capacity: capacity, seen: make(map[string]uint64)}, nil
}

// Call dispatches a mailbox method. Push and Commit take one tag-encoded
// argument, and every method but AckOut returns one tag-encoded result
// (see the wire values in envelope.go).
func (m *Mailbox) Call(_ core.Ctl, method string, args []any) ([]any, error) {
	switch method {
	case "Push":
		arg, err := core.Arg[[]byte](args, 0)
		if err != nil {
			return nil, err
		}
		env, err := decodeEnvelope(arg)
		if err != nil {
			return nil, err
		}
		return []any{m.push(env).encode()}, nil
	case "Fetch":
		return []any{m.fetch().encode()}, nil
	case "Commit":
		arg, err := core.Arg[[]byte](args, 0)
		if err != nil {
			return nil, err
		}
		req, err := decodeCommitReq(arg)
		if err != nil {
			return nil, err
		}
		return []any{m.commit(req).encode()}, nil
	case "AckOut":
		upTo, err := core.Int64Arg(args, 0)
		if err != nil {
			return nil, err
		}
		m.ackOut(uint64(upTo))
		return nil, nil
	case "Status":
		return []any{MailboxStatus{
			QueueLen:  int64(len(m.queue)),
			OutboxLen: int64(len(m.outbox)),
			Processed: m.processed,
			Dups:      m.dups,
			Rejected:  m.rejected,
		}.encode()}, nil
	case "Outbox":
		return []any{encodeOutbox(m.outbox)}, nil
	default:
		return nil, fmt.Errorf("%w: Mailbox.%s", core.ErrUnknownMethod, method)
	}
}

// push enqueues one envelope unless the sender's dedup window or the
// queue capacity rejects it.
func (m *Mailbox) push(env Envelope) PushResult {
	if env.From != "" && env.Seq != 0 && env.Seq <= m.seen[env.From] {
		m.dups++
		return PushResult{Status: PushDup, QueueLen: int64(len(m.queue))}
	}
	if int64(len(m.queue)) >= m.capacity {
		m.rejected++
		return PushResult{Status: PushFull, QueueLen: int64(len(m.queue))}
	}
	if env.From != "" && env.Seq != 0 {
		m.seen[env.From] = env.Seq
	}
	m.nextEnq++
	m.queue = append(m.queue, queuedMsg{EnqSeq: m.nextEnq, Env: env})
	return PushResult{Status: PushOK, QueueLen: int64(len(m.queue))}
}

// fetch returns the head message and current state without mutating
// anything (read-only, so it can be answered from a lease cache).
func (m *Mailbox) fetch() Task {
	t := Task{
		State:    m.state,
		HasState: m.hasState,
		QueueLen: int64(len(m.queue)),
		OutLen:   int64(len(m.outbox)),
	}
	if len(m.queue) > 0 {
		t.Has = true
		t.EnqSeq = m.queue[0].EnqSeq
		t.Env = m.queue[0].Env
	}
	return t
}

// commit atomically applies one handler run's effect set. The head is
// popped only if its enqueue sequence matches req.EnqSeq; a stale commit
// (the message was already applied by an earlier delivery attempt)
// changes nothing and reports Applied=false. Either way the queue length
// and the full undelivered outbox are returned, so the caller can stop
// at an empty queue and forward the outbox.
func (m *Mailbox) commit(req CommitReq) CommitResult {
	applied := len(m.queue) > 0 && m.queue[0].EnqSeq == req.EnqSeq
	if applied {
		m.queue = m.queue[1:]
		m.processed++
		if req.SetState {
			m.state = req.State
			m.hasState = true
		}
		for _, env := range req.Sends {
			m.nextOut++
			env.From = req.From
			env.Seq = m.nextOut
			m.outbox = append(m.outbox, OutEntry{Seq: m.nextOut, Env: env})
		}
	}
	// Call encodes the result before the outbox can change.
	return CommitResult{Applied: applied, QueueLen: int64(len(m.queue)), Pending: m.outbox}
}

// ackOut prunes every outbox entry with sequence ≤ upTo (cumulative ack
// from the deliverer).
func (m *Mailbox) ackOut(upTo uint64) {
	i := 0
	for i < len(m.outbox) && m.outbox[i].Seq <= upTo {
		i++
	}
	if i > 0 {
		m.outbox = append([]OutEntry(nil), m.outbox[i:]...)
	}
}

// Snapshot encodes the full mailbox state (checkpointed by the
// durability tier and shipped whole by migration/state transfer): a
// tagMailbox frame of Capacity, NextEnq, the queue (count, then EnqSeq +
// envelope each), State, HasState, the dedup window (count, then sender +
// high-water seq each, in map order), the outbox, NextOut, Processed,
// Dups and Rejected.
func (m *Mailbox) Snapshot() ([]byte, error) {
	size := len(m.state) + outEntriesSize(m.outbox)
	for _, q := range m.queue {
		size += envelopeSize(q.Env)
	}
	for from := range m.seen {
		size += len(from)
	}
	b := core.NewFrame(tagMailbox, size, 10+len(m.queue)+2*len(m.seen))
	b = binary.AppendUvarint(core.AppendVarint(b, m.capacity), m.nextEnq)
	b = binary.AppendUvarint(b, uint64(len(m.queue)))
	for _, q := range m.queue {
		b = appendEnvelope(binary.AppendUvarint(b, q.EnqSeq), q.Env)
	}
	b = core.AppendBool(core.AppendBytes(b, m.state), m.hasState)
	b = binary.AppendUvarint(b, uint64(len(m.seen)))
	for from, seq := range m.seen {
		b = binary.AppendUvarint(core.AppendString(b, from), seq)
	}
	b = binary.AppendUvarint(appendOutEntries(b, m.outbox), m.nextOut)
	return core.AppendVarint(core.AppendVarint(core.AppendVarint(b, m.processed), m.dups), m.rejected), nil
}

// Restore replaces the mailbox state from a snapshot.
func (m *Mailbox) Restore(data []byte) error {
	s, err := core.DecodeFrame(data, tagMailbox, readMailbox)
	if err != nil {
		return decodeError("mailbox", err)
	}
	*m = s
	return nil
}

// readMailbox reads the fields of a Snapshot frame.
func readMailbox(r *core.Reader) (m Mailbox, err error) {
	if m.capacity, err = r.Varint(); err == nil {
		m.nextEnq, err = r.Uvarint()
	}
	n := 0
	if err == nil {
		n, err = r.Count(1 + minEnvelopeBytes)
	}
	if err == nil && n > 0 {
		m.queue = make([]queuedMsg, n)
		for i := range m.queue {
			if m.queue[i].EnqSeq, err = r.Uvarint(); err != nil {
				return m, err
			}
			if m.queue[i].Env, err = readEnvelope(r); err != nil {
				return m, err
			}
		}
	}
	if err == nil {
		m.state, err = r.Bytes()
	}
	if err == nil {
		m.hasState, err = r.Bool()
	}
	if err == nil {
		n, err = r.Count(2)
	}
	if err != nil {
		return m, err
	}
	m.seen = make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		from, err := r.Str()
		if err != nil {
			return m, err
		}
		if m.seen[from], err = r.Uvarint(); err != nil {
			return m, err
		}
	}
	if m.outbox, err = readOutEntries(r); err == nil {
		m.nextOut, err = r.Uvarint()
	}
	for _, f := range []*int64{&m.processed, &m.dups, &m.rejected} {
		if err == nil {
			*f, err = r.Varint()
		}
	}
	return m, err
}

var _ core.Snapshotter = (*Mailbox)(nil)
