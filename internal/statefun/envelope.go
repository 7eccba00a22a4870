// Package statefun implements the event-driven stateful functions layer
// (DESIGN.md §5i): functions addressed by (fnType, id), each instance
// owning one durable mailbox DSO that holds its inbound queue, its
// private state blob, and a transactional outbox of unsent effects.
//
// Delivery composes the machinery of the layers below instead of adding
// new protocol: pushes ride the at-most-once write path (§5c), the
// handler's whole effect set commits as a single group-commit invocation
// (§5e), the mailbox is a persistent object so every transition lands in
// the WAL and survives full-cluster recovery (§5h), hot instances
// reshard like any other object (§5g), and engines learn of work by
// parking on a synchronization object's monitor (the Doorbell), as
// cloud threads park on a Future. Execution is at-least-once; effects
// are exactly-once-visible.
package statefun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"crucial/internal/core"
	"crucial/internal/objects"
)

// TypeMailbox is the registry name of the mailbox object backing one
// function instance.
const TypeMailbox = "StatefunMailbox"

// ReplyFnType is the reserved function type used to address replies: an
// envelope sent to Address{FnType: ReplyFnType, ID: k} is not enqueued
// into a mailbox but completes the Future object stored under key k.
const ReplyFnType = "_reply"

// DirectoryKey is the key of the Map object listing the currently live
// (possibly-nonempty) function instances. An engine lists it only when
// the doorbell cannot tell it what changed (see Doorbell), and retires
// entries after the idle TTL.
const DirectoryKey = "statefun/.dir"

// Address names one function instance: a registered function type plus a
// free-form instance id (the Cloudburst/StateFun addressing model).
type Address struct {
	FnType string
	ID     string
}

// Key returns the DSO key of the instance's mailbox object.
func (a Address) Key() string { return "statefun/" + a.FnType + "/" + a.ID }

// DirEntry returns the instance's key in the dispatch directory.
func (a Address) DirEntry() string { return a.FnType + "/" + a.ID }

// String renders the address as fnType/id.
func (a Address) String() string { return a.FnType + "/" + a.ID }

// AddressFromDirEntry parses a directory entry back into an Address.
func AddressFromDirEntry(s string) (Address, bool) {
	i := strings.IndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return Address{}, false
	}
	return Address{FnType: s[:i], ID: s[i+1:]}, true
}

// ValidateFnType checks that fnType can be registered and addressed:
// non-empty, no leading '_' (reserved, e.g. ReplyFnType), and no '/'
// (directory entries are "fnType/id" split at the first '/', so a slash
// in the type would parse back as a different, handler-less address and
// strand the instance's messages).
func ValidateFnType(fnType string) error {
	if fnType == "" || fnType[0] == '_' || strings.ContainsRune(fnType, '/') {
		return fmt.Errorf("statefun: invalid function type %q (must be non-empty, not start with '_', not contain '/')", fnType)
	}
	return nil
}

// ValidateAddress checks that an address can be delivered to: a valid
// function type plus a non-empty ID (a directory entry with an empty ID
// fails to parse, so such an instance would never be dispatched).
func ValidateAddress(a Address) error {
	if err := ValidateFnType(a.FnType); err != nil {
		return err
	}
	if a.ID == "" {
		return fmt.Errorf("statefun: invalid address %q: empty instance id", a.String())
	}
	return nil
}

// Envelope is one message: destination address, the sender's identity and
// per-destination sequence number (the application-level dedup key), a
// message name the handler switches on, an opaque encoded body, and an
// optional reply key (a Future object key the handler may complete).
type Envelope struct {
	To      Address
	From    string
	Seq     uint64
	Name    string
	Body    []byte
	ReplyTo string
}

// OutEntry is one undelivered outbox effect: the envelope plus the
// outbox sequence number the mailbox assigned at commit time (stable
// across redeliveries, which is what makes resending dedupable).
type OutEntry struct {
	Seq uint64
	Env Envelope
}

// PushStatus is the mailbox's verdict on one Push.
type PushStatus string

// Push verdicts: accepted, rejected by the per-sender dedup window, or
// bounced by the queue capacity (backpressure).
const (
	PushOK   PushStatus = "ok"
	PushDup  PushStatus = "dup"
	PushFull PushStatus = "full"
)

// PushResult reports the outcome of a Push and the queue length after it
// (senders activate the instance — directory entry, then doorbell — when
// the queue transitions empty → nonempty, i.e. QueueLen == 1).
type PushResult struct {
	Status   PushStatus
	QueueLen int64
}

// Task is the read-only view a runner fetches before executing: the head
// message (if any), the instance's current private state, and the number
// of undelivered outbox entries left over from earlier commits.
type Task struct {
	Has      bool
	EnqSeq   uint64
	Env      Envelope
	State    []byte
	HasState bool
	QueueLen int64
	OutLen   int64
}

// CommitReq is the handler's entire effect set, applied atomically by one
// Commit invocation: pop the head message (identified by EnqSeq), replace
// the private state, and append the outgoing envelopes to the outbox with
// mailbox-assigned sequence numbers stamped From the given identity.
type CommitReq struct {
	EnqSeq   uint64
	From     string
	State    []byte
	SetState bool
	Sends    []Envelope
}

// CommitResult reports whether the commit applied (false means the head
// had already been committed by an earlier attempt — the redelivery
// no-op), the queue length after it, and every still-undelivered outbox
// entry so the runner can forward them regardless.
type CommitResult struct {
	Applied  bool
	QueueLen int64
	Pending  []OutEntry
}

// MailboxStatus is the read-only health view of one instance, used by
// dispatch engines for idle detection and by tests.
type MailboxStatus struct {
	QueueLen  int64
	OutboxLen int64
	Processed int64
	Dups      int64
	Rejected  int64
}

// EncodeBody gob-encodes a handler-level message body (nil encodes to
// an empty body).
func EncodeBody(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	return core.EncodeValue(v)
}

// DecodeBody decodes a body produced by EncodeBody into v.
func DecodeBody(data []byte, v any) error {
	if len(data) == 0 {
		return fmt.Errorf("statefun: empty body")
	}
	return core.DecodeValue(data, v)
}

// RegisterTypes adds the mailbox and doorbell object types to a registry
// (idempotent) and declares the mailbox's read-only methods. Cluster
// bootstrap calls it so every node can materialize both.
func RegisterTypes(r *core.Registry) {
	core.RegisterReadOnlyMethods(TypeMailbox, "Fetch", "Status", "Outbox")
	if _, err := r.Lookup(TypeMailbox); err == nil {
		return
	}
	r.MustRegister(core.TypeInfo{Name: TypeMailbox, New: NewMailbox})
	r.MustRegister(core.TypeInfo{Name: TypeDoorbell, New: NewDoorbell, Synchronization: true})
}

// Wire values (DESIGN.md §5b). Each value the layer ships per message —
// a mailbox method's argument or result, a drain pass's request and
// report, a mailbox snapshot — is one []byte: a tag byte naming the value,
// then its fields in the tag codec's encodings (core.Append*). The
// invocation codec carries it as a plain byte slice. Decoders accept
// exactly their own tag and layout and copy what they return: the mailbox
// keeps a pushed envelope's body queued long after the rpc server has
// recycled the request buffer it arrived in. There is no version. User
// bodies (EncodeBody) are opaque bytes inside these values and stay gob.
const (
	tagAddress      byte = 'a' // FnType, ID
	tagEnvelope     byte = 'e' // an envelope (appendEnvelope)
	tagPushResult   byte = 'p' // Status, QueueLen
	tagTask         byte = 't' // Has, EnqSeq, envelope, State, HasState, QueueLen, OutLen
	tagCommitReq    byte = 'c' // EnqSeq, From, State, SetState, envelope list
	tagCommitResult byte = 'r' // Applied, QueueLen, outbox entry list
	tagOutbox       byte = 'o' // outbox entry list: count, then Seq + envelope each
	tagStatus       byte = 's' // QueueLen, OutboxLen, Processed, Dups, Rejected
	tagRunReport    byte = 'R' // Processed, QueueLen, OutboxLen
	tagMailbox      byte = 'M' // a mailbox snapshot (Mailbox.Snapshot)
	tagDoorbellWake byte = 'w' // Nonce, Head, Relist, address list
)

// decodeFrame is core.DecodeFrame with the value's name on its error.
func decodeFrame[T any](data []byte, tag byte, what string, read func(*core.Reader) (T, error)) (T, error) {
	v, err := core.DecodeFrame(data, tag, read)
	if err != nil {
		return v, fmt.Errorf("statefun: decode %s: %w", what, err)
	}
	return v, nil
}

func appendAddress(dst []byte, a Address) []byte {
	return core.AppendString(core.AppendString(dst, a.FnType), a.ID)
}

func readAddress(r *core.Reader) (a Address, err error) {
	if a.FnType, err = r.Str(); err == nil {
		a.ID, err = r.Str()
	}
	return a, err
}

// Encode returns the address as a drain pass's request (DecodeAddress).
func (a Address) Encode() []byte {
	return appendAddress(core.NewFrame(tagAddress, len(a.FnType)+len(a.ID), 2), a)
}

// DecodeAddress parses exactly one Address.Encode frame.
func DecodeAddress(data []byte) (Address, error) {
	return decodeFrame(data, tagAddress, "address", readAddress)
}

func appendEnvelope(dst []byte, e Envelope) []byte {
	dst = core.AppendString(appendAddress(dst, e.To), e.From)
	dst = core.AppendString(binary.AppendUvarint(dst, e.Seq), e.Name)
	return core.AppendString(core.AppendBytes(dst, e.Body), e.ReplyTo)
}

func readEnvelope(r *core.Reader) (e Envelope, err error) {
	if e.To, err = readAddress(r); err == nil {
		e.From, err = r.Str()
	}
	if err == nil {
		e.Seq, err = r.Uvarint()
	}
	if err == nil {
		e.Name, err = r.Str()
	}
	if err == nil {
		e.Body, err = r.Bytes()
	}
	if err == nil {
		e.ReplyTo, err = r.Str()
	}
	return e, err
}

// envelopeSize bounds the variable bytes of e's encoding, for sizing.
func envelopeSize(e Envelope) int {
	return len(e.To.FnType) + len(e.To.ID) + len(e.From) + len(e.Name) + len(e.Body) + len(e.ReplyTo) +
		6*binary.MaxVarintLen64
}

func (e Envelope) encode() []byte {
	return appendEnvelope(core.NewFrame(tagEnvelope, envelopeSize(e), 0), e)
}

func decodeEnvelope(data []byte) (Envelope, error) {
	return decodeFrame(data, tagEnvelope, "envelope", readEnvelope)
}

func (p PushResult) encode() []byte {
	b := core.NewFrame(tagPushResult, len(p.Status), 2)
	return core.AppendVarint(core.AppendString(b, string(p.Status)), p.QueueLen)
}

func decodePushResult(data []byte) (PushResult, error) {
	return decodeFrame(data, tagPushResult, "push result", func(r *core.Reader) (p PushResult, err error) {
		var status string
		if status, err = r.Str(); err == nil {
			p.Status = PushStatus(status)
			p.QueueLen, err = r.Varint()
		}
		return p, err
	})
}

func (t Task) encode() []byte {
	b := core.NewFrame(tagTask, envelopeSize(t.Env)+len(t.State), 6)
	b = binary.AppendUvarint(core.AppendBool(b, t.Has), t.EnqSeq)
	b = core.AppendBool(core.AppendBytes(appendEnvelope(b, t.Env), t.State), t.HasState)
	return core.AppendVarint(core.AppendVarint(b, t.QueueLen), t.OutLen)
}

func decodeTask(data []byte) (Task, error) {
	return decodeFrame(data, tagTask, "task", func(r *core.Reader) (t Task, err error) {
		if t.Has, err = r.Bool(); err == nil {
			t.EnqSeq, err = r.Uvarint()
		}
		if err == nil {
			t.Env, err = readEnvelope(r)
		}
		if err == nil {
			t.State, err = r.Bytes()
		}
		if err == nil {
			t.HasState, err = r.Bool()
		}
		if err == nil {
			t.QueueLen, err = r.Varint()
		}
		if err == nil {
			t.OutLen, err = r.Varint()
		}
		return t, err
	})
}

func (c CommitReq) encode() []byte {
	size := len(c.From) + len(c.State)
	for _, e := range c.Sends {
		size += envelopeSize(e)
	}
	b := binary.AppendUvarint(core.NewFrame(tagCommitReq, size, 4), c.EnqSeq)
	b = core.AppendBool(core.AppendBytes(core.AppendString(b, c.From), c.State), c.SetState)
	b = binary.AppendUvarint(b, uint64(len(c.Sends)))
	for _, e := range c.Sends {
		b = appendEnvelope(b, e)
	}
	return b
}

func decodeCommitReq(data []byte) (CommitReq, error) {
	return decodeFrame(data, tagCommitReq, "commit request", func(r *core.Reader) (c CommitReq, err error) {
		if c.EnqSeq, err = r.Uvarint(); err == nil {
			c.From, err = r.Str()
		}
		if err == nil {
			c.State, err = r.Bytes()
		}
		if err == nil {
			c.SetState, err = r.Bool()
		}
		n := 0
		if err == nil {
			n, err = r.Count(minEnvelopeBytes)
		}
		if err == nil && n > 0 {
			c.Sends = make([]Envelope, n)
			for i := range c.Sends {
				if c.Sends[i], err = readEnvelope(r); err != nil {
					break
				}
			}
		}
		return c, err
	})
}

// minEnvelopeBytes is the smallest envelope encoding: six empty
// length-prefixed fields and a one-byte Seq.
const minEnvelopeBytes = 7

func appendOutEntries(dst []byte, out []OutEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(out)))
	for _, o := range out {
		dst = appendEnvelope(binary.AppendUvarint(dst, o.Seq), o.Env)
	}
	return dst
}

// outEntriesSize bounds the bytes of out's encoding, for sizing.
func outEntriesSize(out []OutEntry) int {
	size := binary.MaxVarintLen64
	for _, o := range out {
		size += binary.MaxVarintLen64 + envelopeSize(o.Env)
	}
	return size
}

func readOutEntries(r *core.Reader) ([]OutEntry, error) {
	n, err := r.Count(1 + minEnvelopeBytes)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]OutEntry, n)
	for i := range out {
		if out[i].Seq, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if out[i].Env, err = readEnvelope(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c CommitResult) encode() []byte {
	b := core.NewFrame(tagCommitResult, 1+outEntriesSize(c.Pending), 1)
	return appendOutEntries(core.AppendVarint(core.AppendBool(b, c.Applied), c.QueueLen), c.Pending)
}

func decodeCommitResult(data []byte) (CommitResult, error) {
	return decodeFrame(data, tagCommitResult, "commit result", func(r *core.Reader) (c CommitResult, err error) {
		if c.Applied, err = r.Bool(); err == nil {
			c.QueueLen, err = r.Varint()
		}
		if err == nil {
			c.Pending, err = readOutEntries(r)
		}
		return c, err
	})
}

func encodeOutbox(out []OutEntry) []byte {
	return appendOutEntries(core.NewFrame(tagOutbox, outEntriesSize(out), 0), out)
}

func decodeOutbox(data []byte) ([]OutEntry, error) {
	return decodeFrame(data, tagOutbox, "outbox", readOutEntries)
}

func (s MailboxStatus) encode() []byte {
	b := core.NewFrame(tagStatus, 0, 5)
	b = core.AppendVarint(core.AppendVarint(b, s.QueueLen), s.OutboxLen)
	return core.AppendVarint(core.AppendVarint(core.AppendVarint(b, s.Processed), s.Dups), s.Rejected)
}

func decodeStatus(data []byte) (MailboxStatus, error) {
	return decodeFrame(data, tagStatus, "status", func(r *core.Reader) (s MailboxStatus, err error) {
		for _, f := range []*int64{&s.QueueLen, &s.OutboxLen, &s.Processed, &s.Dups, &s.Rejected} {
			if *f, err = r.Varint(); err != nil {
				break
			}
		}
		return s, err
	})
}

// isFutureAlreadySet reports whether err is the (possibly wire-decoded)
// future-already-completed error. The objects package registers it as a
// core error sentinel, so errors.Is holds across the wire.
func isFutureAlreadySet(err error) bool {
	return errors.Is(err, objects.ErrFutureAlreadySet)
}

// decodeResult decodes the single tag-encoded result of a mailbox
// invocation.
func decodeResult[T any](res []any, err error, decode func([]byte) (T, error)) (T, error) {
	b, err := resultAs[[]byte](res, err)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(b)
}

// resultAs decodes the single result of a mailbox invocation into T.
func resultAs[T any](res []any, err error) (T, error) {
	var zero T
	if err != nil {
		return zero, err
	}
	if len(res) < 1 {
		return zero, fmt.Errorf("statefun: empty result set")
	}
	v, ok := res[0].(T)
	if !ok {
		return zero, fmt.Errorf("statefun: result has type %T, want %T", res[0], zero)
	}
	return v, nil
}
