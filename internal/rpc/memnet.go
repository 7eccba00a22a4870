package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MemNetwork is an in-process network of named endpoints: each Listen
// claims an address, and a Dial to that address yields a connected pair.
// It is safe for concurrent use.
//
// A connection is two bounded one-way queues, one per direction, and no
// goroutine: Write appends to the queue its peer reads from, and blocks
// once memQueueCap bytes wait there unread, so a slow reader still holds
// its writers back. Close wakes every blocked reader and writer on both
// ends; the peer reads out what was already queued, then io.EOF.
//
// Every frame crosses one delivery point (memConn.deliver). A Verdict
// installed there may drop, duplicate or delay each frame by its link
// (the names of the two ends) and its header; this is how the chaos
// engine injects network faults. Without a Verdict a Write is one copy
// into the peer's queue, whatever it carries; with one, Write cuts its
// bytes into whole frames first. The rpc writer only ever writes whole
// frames, so on its connections the cut reads headers and copies nothing.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	verdict   Verdict
}

// Fate is a Verdict's decision for one frame. The zero Fate delivers it.
type Fate struct {
	// Drop loses the frame in the network: the writer is not told.
	Drop bool
	// Dup delivers the frame twice.
	Dup bool
	// Delay, when positive, delivers the frame that much later. The
	// frames behind it are not held back, so they overtake it.
	Delay time.Duration
}

// Verdict decides the fate of one frame on its way from the endpoint
// named from to the one named to. A dialed end is named by DialAs (the
// empty name for Dial), an accepted end by its listener's address. It runs
// on the writer's goroutine and must not block.
type Verdict func(from, to string, meta FrameMeta) Fate

// memQueueCap is how many bytes may wait unread in one direction of a
// connection before its writers block: enough for a burst of coalesced
// frames from every caller sharing the connection, small enough that a
// stalled reader holds little memory.
const memQueueCap = 256 << 10

var errNoDeadline = errors.New("rpc: memnet connections have no deadlines")

// NewMemNetwork returns an empty in-process network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

// SetVerdict installs v at the network's delivery point. It applies to
// connections dialed afterwards, so install it before the first Dial.
func (n *MemNetwork) SetVerdict(v Verdict) {
	n.mu.Lock()
	n.verdict = v
	n.mu.Unlock()
}

// Listen claims addr on the network.
func (n *MemNetwork) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("rpc: memnet address %q already in use", addr)
	}
	l := &memListener{
		net:    n,
		addr:   addr,
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a listener previously created with Listen, from an
// unnamed endpoint.
func (n *MemNetwork) Dial(addr string) (net.Conn, error) {
	return n.DialAs("", addr)
}

// DialAs connects to addr from the endpoint named from: the Verdict sees
// this connection's frames as from -> addr and addr -> from.
func (n *MemNetwork) DialAs(from, addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	v := n.verdict
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rpc: memnet dial %q: %w", addr, errConnRefused)
	}
	client, server := newMemPair(from, addr, v)
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("rpc: memnet dial %q: %w", addr, errConnRefused)
	}
}

// remove drops a dead listener address so it can be reused (e.g. when a
// crashed node is restarted under the same name).
func (n *MemNetwork) remove(addr string, l *memListener) {
	n.mu.Lock()
	if cur, ok := n.listeners[addr]; ok && cur == l {
		delete(n.listeners, addr)
	}
	n.mu.Unlock()
}

var errConnRefused = errors.New("connection refused")

type memListener struct {
	net    *MemNetwork
	addr   string
	accept chan net.Conn

	closeOnce sync.Once
	done      chan struct{}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.net.remove(l.addr, l)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

var _ net.Listener = (*memListener)(nil)
var _ Transport = (*MemNetwork)(nil)

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memQueue is one direction of a connection: the bytes one end wrote that
// the other has not taken yet.
type memQueue struct {
	mu       sync.Mutex
	readable sync.Cond // bytes queued, or an end closed
	writable sync.Cond // room freed, or an end closed
	buf      []byte    // queued bytes, a payload-pool buffer or nil
	rclosed  bool      // the reading end closed: writes fail, bytes are dropped
	wclosed  bool      // the writing end closed: the reader drains, then io.EOF
}

// push queues p. A writer waits while memQueueCap bytes are queued unless
// wait is false (a delayed frame, already admitted once).
func (q *memQueue) push(p []byte, wait bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for wait && len(q.buf) >= memQueueCap && !q.rclosed && !q.wclosed {
		q.writable.Wait()
	}
	if q.rclosed || q.wclosed {
		return io.ErrClosedPipe
	}
	if len(p) == 0 {
		return nil
	}
	if q.buf == nil {
		q.buf = GetBuffer(len(p))
	}
	q.buf = append(q.buf, p...)
	q.readable.Signal()
	return nil
}

// take hands the reader everything queued, waiting for bytes first.
func (q *memQueue) take() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.rclosed && !q.wclosed {
		q.readable.Wait()
	}
	switch {
	case q.rclosed:
		return nil, io.ErrClosedPipe
	case len(q.buf) == 0:
		return nil, io.EOF
	}
	b := q.buf
	q.buf = nil
	q.writable.Broadcast()
	return b, nil
}

// closeEnd closes the reading (reader true) or the writing end and wakes
// everyone blocked on the queue. Bytes nobody will read go back to the
// pool.
func (q *memQueue) closeEnd(reader bool) {
	q.mu.Lock()
	if reader {
		q.rclosed = true
		PutBuffer(q.buf)
		q.buf = nil
	} else {
		q.wclosed = true
	}
	q.readable.Broadcast()
	q.writable.Broadcast()
	q.mu.Unlock()
}

// memConn is one end of a connection.
type memConn struct {
	in, out       *memQueue
	local, remote string
	verdict       Verdict

	wmu     sync.Mutex // one Write at a time, so frames never interleave
	partial []byte     // under a Verdict: a frame a Write left unfinished

	rmu  sync.Mutex // one Read at a time
	rbuf []byte     // bytes taken from in, read from roff on
	roff int
}

// memPair is both ends of a connection and its two queues, allocated
// together.
type memPair struct {
	q    [2]memQueue
	ends [2]memConn
}

func newMemPair(dialer, addr string, v Verdict) (client, server *memConn) {
	p := &memPair{}
	for i := range p.q {
		p.q[i].readable.L = &p.q[i].mu
		p.q[i].writable.L = &p.q[i].mu
	}
	client, server = &p.ends[0], &p.ends[1]
	client.in, client.out, client.local, client.remote = &p.q[0], &p.q[1], dialer, addr
	server.in, server.out, server.local, server.remote = &p.q[1], &p.q[0], addr, dialer
	client.verdict, server.verdict = v, v
	return client, server
}

func (c *memConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.roff == len(c.rbuf) {
		b, err := c.in.take()
		if err != nil {
			return 0, err
		}
		c.rbuf, c.roff = b, 0
	}
	n := copy(p, c.rbuf[c.roff:])
	c.roff += n
	if c.roff == len(c.rbuf) {
		PutBuffer(c.rbuf)
		c.rbuf, c.roff = nil, 0
	}
	return n, nil
}

// Write hands p to the delivery point. Bytes lost to a Verdict still
// count as written: to the writer, loss inside the network is not a
// broken connection.
func (c *memConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.verdict == nil {
		if err := c.out.push(p, true); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	data := p
	if len(c.partial) > 0 {
		c.partial = append(c.partial, p...)
		data = c.partial
	}
	for len(data) >= FrameHeaderSize {
		size := FrameHeaderSize + ParseFrameHeader(data).PayloadLen
		if len(data) < size {
			break
		}
		if err := c.deliver(data[:size]); err != nil {
			return 0, err
		}
		data = data[size:]
	}
	c.partial = append(c.partial[:0], data...)
	return len(p), nil
}

// deliver is the network's one delivery point: the Verdict's fate for one
// whole frame, carried out on the peer's queue.
func (c *memConn) deliver(frame []byte) error {
	f := c.verdict(c.local, c.remote, ParseFrameHeader(frame))
	switch {
	case f.Drop:
		return nil
	case f.Delay > 0:
		late := append(GetBuffer(len(frame)), frame...)
		time.AfterFunc(f.Delay, func() {
			_ = c.out.push(late, false) // closed by then: lost with the connection
			PutBuffer(late)
		})
		return nil
	}
	if err := c.out.push(frame, true); err != nil {
		return err
	}
	if f.Dup {
		return c.out.push(frame, true)
	}
	return nil
}

// Close closes both directions at this end. The peer still reads what
// this end wrote before closing; what the peer wrote that this end did
// not read is dropped.
func (c *memConn) Close() error {
	c.in.closeEnd(true)
	c.out.closeEnd(false)
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr(c.local) }
func (c *memConn) RemoteAddr() net.Addr { return memAddr(c.remote) }

func (c *memConn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *memConn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *memConn) SetWriteDeadline(time.Time) error { return errNoDeadline }

var _ net.Conn = (*memConn)(nil)
