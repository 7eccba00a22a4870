package main

import (
	"context"
	"net"
	"strings"
	"sync"
	"time"

	"crucial/internal/chaos"
	"crucial/internal/durability"
	"crucial/internal/rpc"
	"crucial/internal/server"
	"crucial/internal/telemetry"
)

// trace.go holds what a traced run adds around the program, all of it
// from outside: benchmark-owned spans kept in memory, a counting
// rpc.Transport threaded in as the inner transport of a rule-less
// chaos.Engine (the only transport seam cluster.Options offers), a
// counting durability.Storage passed as cluster.Options.ColdStore, and
// the telemetry bundle whose registry counters the program already
// exports. None of it is present in a gated run.

// spanRec is one finished benchmark-owned span. Times are nanoseconds
// after the tracer's epoch; Op is the operation the span belongs to and
// Parent the span that caused it. From outside the program every span is
// a root — an operation, or storage work no operation can be told to have
// caused — so Op is the span's own id and Parent stays 0; the fields are
// there for the spans inside the program that a later change adds.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
}

// maxSpans bounds the spans kept in memory: twenty times what the
// busiest workload records in a traced window.
const maxSpans = 1_000_000

type tracer struct {
	tel   *telemetry.Telemetry
	epoch time.Time

	mu     sync.Mutex
	nextID uint64
	spans  []spanRec

	conns []*connStats
	eng   *chaos.Engine
	store *countingStore
}

func newTracer() *tracer {
	return &tracer{
		// A ring this size holds the last few seconds of program spans
		// for analysis.Analyze; the default 4096 would hold a fraction of
		// a second of kv traffic.
		tel:   telemetry.NewWithCapacity(32768),
		epoch: time.Now(),
	}
}

// span is an open benchmark-owned span; the zero value (from a nil
// tracer) is inert, so call sites need no branch on tracing.
type span struct {
	t     *tracer
	name  string
	start time.Time
}

func (t *tracer) begin(name string) span {
	if t == nil {
		return span{}
	}
	return span{t: t, name: name, start: time.Now()}
}

// end closes the span and returns how long it was open.
func (s span) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{
			Name: s.name, Start: int64(s.start.Sub(t.epoch)), End: int64(now.Sub(t.epoch)), Op: id,
		})
	}
	t.mu.Unlock()
	return now.Sub(s.start)
}

// durations returns the lengths of the stored spans called name that
// started inside [from, to) ns after the epoch, in microseconds.
func (t *tracer) durations(name string, from, to int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// Link classes of the counting transport.
const (
	linkClient = iota // client <-> node
	linkPeer          // node <-> node
	linkCache         // node -> cache-client (lease invalidations)
	linkClasses
)

// linkTotals sums one link class.
type linkTotals struct {
	writes, frames, bytes int64
	busy                  time.Duration
}

// connStats counts one side of one connection. Writers serialize their
// writes per connection already; the mutex orders them with snapshots.
type connStats struct {
	addr string

	mu        sync.Mutex
	tot       linkTotals
	sawInvoke bool
	// Frame scanner over the written byte stream.
	hdr     [rpc.FrameHeaderSize]byte
	hdrLen  int
	payload int // payload bytes of the current frame still to come
}

// scan walks written bytes, counting frame headers. A connection that
// ever carries a KindInvoke frame (request or response) is a client link:
// nodes never send that kind to each other.
func (c *connStats) scan(p []byte) {
	for len(p) > 0 {
		if c.payload > 0 {
			n := min(c.payload, len(p))
			c.payload -= n
			p = p[n:]
			continue
		}
		n := copy(c.hdr[c.hdrLen:], p)
		c.hdrLen += n
		p = p[n:]
		if c.hdrLen == rpc.FrameHeaderSize {
			meta := rpc.ParseFrameHeader(c.hdr[:])
			c.tot.frames++
			if meta.Kind == server.KindInvoke {
				c.sawInvoke = true
			}
			c.payload = meta.PayloadLen
			c.hdrLen = 0
		}
	}
}

func (c *connStats) class() int {
	switch {
	case strings.HasPrefix(c.addr, "cache-client"):
		return linkCache
	case c.sawInvoke:
		return linkClient
	default:
		return linkPeer
	}
}

// countedConn counts every write of one side of a connection and how
// long the write took (on net.Pipe, until the reader has taken it).
type countedConn struct {
	net.Conn
	st *connStats
}

func (c countedConn) Write(p []byte) (int, error) {
	begin := time.Now()
	n, err := c.Conn.Write(p)
	took := time.Since(begin)
	c.st.mu.Lock()
	c.st.tot.writes++
	c.st.tot.bytes += int64(n)
	c.st.tot.busy += took
	c.st.scan(p[:n])
	c.st.mu.Unlock()
	return n, err
}

// countingTransport wraps both ends of every connection of the cluster.
type countingTransport struct {
	inner rpc.Transport
	t     *tracer
}

func (ct countingTransport) wrap(conn net.Conn, addr string) net.Conn {
	st := &connStats{addr: addr}
	ct.t.mu.Lock()
	ct.t.conns = append(ct.t.conns, st)
	ct.t.mu.Unlock()
	return countedConn{Conn: conn, st: st}
}

func (ct countingTransport) Dial(addr string) (net.Conn, error) {
	conn, err := ct.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return ct.wrap(conn, addr), nil
}

func (ct countingTransport) Listen(addr string) (net.Listener, error) {
	l, err := ct.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: l, ct: ct, addr: addr}, nil
}

type countingListener struct {
	net.Listener
	ct   countingTransport
	addr string
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.ct.wrap(conn, l.addr), nil
}

// engine returns the rule-less chaos engine whose inner transport counts.
// With no rule and no partition the engine injects nothing; it is only
// the seam.
func (t *tracer) engine() *chaos.Engine {
	if t.eng == nil {
		t.eng = chaos.New(countingTransport{inner: rpc.NewMemNetwork(), t: t}, chaos.Options{Telemetry: t.tel})
	}
	return t.eng
}

// links sums the counted connections per link class.
func (t *tracer) links() [linkClasses]linkTotals {
	t.mu.Lock()
	conns := append([]*connStats(nil), t.conns...)
	t.mu.Unlock()
	var out [linkClasses]linkTotals
	for _, c := range conns {
		c.mu.Lock()
		k := c.class()
		out[k].writes += c.tot.writes
		out[k].frames += c.tot.frames
		out[k].bytes += c.tot.bytes
		out[k].busy += c.tot.busy
		c.mu.Unlock()
	}
	return out
}

// storeTotals is what the counting store has seen.
type storeTotals struct {
	puts              int64
	putBusy           time.Duration
	walBytes          int64
	snapPuts, snapLen int64
}

// countingStore passes every durability.Storage call through unchanged,
// recording a span per call. Puts under "wal/" are log segments; every
// other put is checkpoint traffic (snapshot blobs and manifests).
type countingStore struct {
	inner durability.Storage
	t     *tracer

	mu  sync.Mutex
	tot storeTotals
}

func (t *tracer) wrapStore(inner durability.Storage) durability.Storage {
	t.store = &countingStore{inner: inner, t: t}
	return t.store
}

func (t *tracer) storeTotals() storeTotals {
	if t.store == nil {
		return storeTotals{}
	}
	t.store.mu.Lock()
	defer t.store.mu.Unlock()
	return t.store.tot
}

func (s *countingStore) put(key string, size int, took time.Duration) {
	s.mu.Lock()
	s.tot.puts++
	s.tot.putBusy += took
	if strings.HasPrefix(key, "wal/") {
		s.tot.walBytes += int64(size)
	} else {
		s.tot.snapPuts++
		s.tot.snapLen += int64(size)
	}
	s.mu.Unlock()
}

func (s *countingStore) Put(ctx context.Context, key string, data []byte) error {
	sp := s.t.begin("durability.put")
	err := s.inner.Put(ctx, key, data)
	s.put(key, len(data), sp.end())
	return err
}

func (s *countingStore) PutIfAbsent(ctx context.Context, key string, data []byte) (bool, error) {
	sp := s.t.begin("durability.put_if_absent")
	ok, err := s.inner.PutIfAbsent(ctx, key, data)
	s.put(key, len(data), sp.end())
	return ok, err
}

func (s *countingStore) Get(ctx context.Context, key string) ([]byte, error) {
	sp := s.t.begin("durability.get")
	data, err := s.inner.Get(ctx, key)
	sp.end()
	return data, err
}

func (s *countingStore) List(ctx context.Context, prefix string) ([]string, error) {
	sp := s.t.begin("durability.list")
	keys, err := s.inner.List(ctx, prefix)
	sp.end()
	return keys, err
}

func (s *countingStore) Delete(ctx context.Context, key string) error {
	sp := s.t.begin("durability.delete")
	err := s.inner.Delete(ctx, key)
	sp.end()
	return err
}

var (
	_ rpc.Transport      = countingTransport{}
	_ durability.Storage = (*countingStore)(nil)
)
