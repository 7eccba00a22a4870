package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
)

// The gob descriptor cache under EncodeValue, DecodeValue and the tag
// codec's gob fallback decode.
//
// A single-value gob stream is the definitions of the types it carries —
// messages whose type id is negative — followed by one value message. A
// fresh gob.Encoder per value builds and sends those definitions again,
// and a fresh gob.Decoder decodes them and compiles its decode engine
// again, on every call. The two tables below keep primed coders instead,
// so a type's descriptors are built and compiled once per process. The
// bytes do not change:
//
//   - a concrete type's first stream records its definition messages as
//     the type's prefix; a primed encoder writes only the value message,
//     which is returned behind that prefix — what a fresh stream holds,
//     since gob's type ids are process-wide. Types from which an interface
//     is reachable are not cached: gob sends the descriptor of an
//     interface's concrete value only the first time an encoder meets it,
//     so a primed encoder would leave it out.
//   - a decoder primed with a stream's exact prefix has read exactly those
//     definitions, so it maps type ids as a fresh decoder of the same
//     stream would; later streams with that prefix feed it their value
//     message only. A stream that does not split, a decode error or bytes
//     left unread discard the decoder and run the fresh decode, which
//     produces the result and the error. A stream carrying a user type
//     behind an interface does not split: gob defines that type in the
//     middle of the value. A crafted value message can define a type
//     inside an interface value too; a decoder kept after reading one
//     accepts a later crafted message that names the type without
//     defining it, which a fresh decoder refuses. Gob writes neither.
//
// Each entry keeps up to maxIdleGobCoders primed coders that no call is
// using. A call takes one (or primes a new one) and gives it back after a
// clean run, so no lock is held while gob runs, which may call a user
// GobEncode or GobDecode that encodes or decodes the same type again. The
// tables are process-wide, like a sync.Pool: what they hold never changes
// a result, only its cost. Both are bounded: maxGobTypes entries each
// (past that, values take fresh streams, as intern.go's names do), and
// the buffers of an entry's idle coders hold at most maxGobCachedBytes
// together, so a large Snapshotter state never stays pinned. No coder
// keeps the caller's bytes.
const (
	maxGobTypes       = 256
	maxIdleGobCoders  = 4
	maxGobCachedBytes = 64 << 10
)

// coders is a free list of primed coders that no call is using: at most
// maxIdleGobCoders of them, whose buffers hold at most maxGobCachedBytes
// together.
type coders[T any] struct {
	mu    sync.Mutex
	idle  []idleCoder[T]
	bytes int
}

// idleCoder is a coder and the bytes its buffers hold: for an encoder,
// twice the largest message it has written (gob grows its buffer by
// appending, so its capacity may reach that), for a decoder the last
// message it read (gob allocates each one exactly).
type idleCoder[T any] struct {
	c    *T
	held int
}

// take returns an idle coder and the bytes it holds, or nil.
func (l *coders[T]) take() (*T, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return nil, 0
	}
	ic := l.idle[n-1]
	l.idle = l.idle[:n-1]
	l.bytes -= ic.held
	return ic.c, ic.held
}

// put keeps c for a later call while the list has room for it.
func (l *coders[T]) put(c *T, held int) {
	l.mu.Lock()
	if len(l.idle) < maxIdleGobCoders && l.bytes+held <= maxGobCachedBytes {
		l.idle = append(l.idle, idleCoder[T]{c, held})
		l.bytes += held
	}
	l.mu.Unlock()
}

// gobEncoder writes its messages straight into the stream it returns, so
// the only buffer it keeps is gob's own.
type gobEncoder struct {
	enc    *gob.Encoder
	prefix []byte // the definition messages of its first stream
	out    []byte // the stream being written; nil between calls
	primed bool   // it has sent the type's definitions
}

// Write appends one gob message to the stream. A primed encoder writes one
// message per stream, put behind the prefix in a stream sized for both.
func (c *gobEncoder) Write(p []byte) (int, error) {
	if c.out == nil && c.primed {
		c.out = append(make([]byte, 0, len(c.prefix)+len(p)), c.prefix...)
	}
	c.out = append(c.out, p...)
	return len(p), nil
}

type gobDecoder struct {
	rd  bytes.Reader // an io.ByteReader, so gob adds no bufio
	dec *gob.Decoder
}

// gobTables maps a concrete type to its encoders and the exact bytes of a
// stream's definition messages to the decoders primed with them.
var gobTables struct {
	mu       sync.Mutex
	types    map[reflect.Type]*coders[gobEncoder] // nil: the type takes fresh streams
	prefixes map[string]*coders[gobDecoder]
}

// encodeGob returns v as a complete single-value gob stream.
func encodeGob(v any) ([]byte, error) {
	if rv := reflect.ValueOf(v); rv.IsValid() && !(rv.Kind() == reflect.Pointer && rv.IsNil()) {
		if l := gobTypeFor(rv.Type()); l != nil {
			if out, ok := encodeWith(l, v); ok {
				return out, nil
			}
		}
	}
	codecStats.gobStreams.Add(1)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobTypeFor returns t's encoders, adding an entry while the table has
// room, or nil when t takes fresh streams.
func gobTypeFor(t reflect.Type) *coders[gobEncoder] {
	gobTables.mu.Lock()
	defer gobTables.mu.Unlock()
	e, ok := gobTables.types[t]
	if ok || len(gobTables.types) >= maxGobTypes {
		return e
	}
	if !reachesInterface(t, map[reflect.Type]bool{}) {
		e = &coders[gobEncoder]{}
	}
	if gobTables.types == nil {
		gobTables.types = make(map[reflect.Type]*coders[gobEncoder])
	}
	gobTables.types[t] = e
	return e
}

// encodeWith returns v's stream from one of l's encoders, or false when
// it could not; the caller then encodes afresh, which also yields the
// error. An encoder that failed is discarded.
func encodeWith(l *coders[gobEncoder], v any) ([]byte, bool) {
	c, held := l.take()
	if c == nil {
		c = &gobEncoder{}
		c.enc = gob.NewEncoder(c)
	}
	err := c.enc.Encode(v)
	out := c.out
	c.out = nil
	if err != nil {
		return nil, false
	}
	if !c.primed {
		n, ok := splitGobStream(out)
		if !ok {
			return nil, false
		}
		codecStats.gobStreams.Add(1)
		c.prefix, c.primed = bytes.Clone(out[:n]), true
	}
	l.put(c, max(held, 2*(len(out)-len(c.prefix))))
	return out, true
}

// reachesInterface reports whether gob, encoding a t, can meet an
// interface value: through pointers, slices, arrays, maps and exported
// struct fields.
func reachesInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reachesInterface(t.Elem(), seen)
	case reflect.Map:
		return reachesInterface(t.Key(), seen) || reachesInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && reachesInterface(f.Type, seen) {
				return true
			}
		}
	}
	return false
}

// decodeGob decodes one single-value gob stream into v, with the error
// (unwrapped) a fresh gob.Decoder of data returns.
func decodeGob(data []byte, v any) error {
	if len(data) <= maxGobCachedBytes {
		if n, ok := splitGobStream(data); ok {
			if l := gobPrefixFor(data[:n]); l != nil && decodeWith(l, data, n, v) {
				return nil
			}
		}
	}
	codecStats.gobStreams.Add(1)
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// gobPrefixFor returns the decoders of prefix, adding an entry while the
// table has room, or nil.
func gobPrefixFor(prefix []byte) *coders[gobDecoder] {
	gobTables.mu.Lock()
	defer gobTables.mu.Unlock()
	if l := gobTables.prefixes[string(prefix)]; l != nil || len(gobTables.prefixes) >= maxGobTypes {
		return l
	}
	if gobTables.prefixes == nil {
		gobTables.prefixes = make(map[string]*coders[gobDecoder])
	}
	l := &coders[gobDecoder]{}
	gobTables.prefixes[string(prefix)] = l
	return l
}

// decodeWith feeds the stream data, whose value message starts at n, to
// one of l's decoders: the whole stream to a new one, the value message
// to a primed one. It reports whether the decode succeeded and read the
// stream to its end; a decoder that did not is discarded.
func decodeWith(l *coders[gobDecoder], data []byte, n int, v any) bool {
	c, _ := l.take()
	in := data[n:]
	if c == nil {
		c = &gobDecoder{}
		c.dec = gob.NewDecoder(&c.rd)
		in = data
		codecStats.gobStreams.Add(1)
	}
	c.rd.Reset(in)
	err := c.dec.Decode(v)
	left := c.rd.Len()
	c.rd.Reset(nil)
	if err != nil || left != 0 {
		return false
	}
	l.put(c, len(data)-n)
	return true
}

// splitGobStream returns the length of data's leading definition
// messages when data is such messages followed by exactly one value
// message (a non-negative type id).
func splitGobStream(data []byte) (int, bool) {
	for off := 0; off < len(data); {
		size, w := gobUint(data[off:])
		if w == 0 || size == 0 || size > uint64(len(data)-off-w) {
			return 0, false
		}
		id, iw := gobUint(data[off+w : off+w+int(size)])
		if iw == 0 {
			return 0, false
		}
		if id&1 == 0 { // a gob int carries its sign in the low bit
			return off, off+w+int(size) == len(data)
		}
		off += w + int(size)
	}
	return 0, false
}

// gobUint reads one gob unsigned integer: a byte below 0x80 is the value,
// otherwise its negation is the count, at most 8, of big-endian bytes that
// follow. It returns the bytes read, 0 on malformed input.
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}
