package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Fast wire codec for the invocation hot path.
//
// Every DSO method call serializes one Invocation and one Response. The
// format is a compact, self-describing tag format for the argument types
// the built-in object library uses (the RegisterValueTypes set); anything
// else falls back to gob value by value, so the RegisterValue contract
// holds.
//
// Layout (all integers varint unless stated):
//
//	byte    wireMagic (0xC7)
//	byte    wireVersion (1)
//	byte    kind: 'I' invocation | 'R' response
//
//	invocation: Type, Key, Method (strings), Args values, Init values,
//	            flags byte (bit0 = Persist, bit1 = stamped, bit2 =
//	            read-only), TraceID, SpanID (uvarint), then — only when
//	            bit1 is set — ClientID, Seq (uvarint): the at-most-once
//	            stamp.
//	response:   Results values, Err (string)
//
// A value list is a uvarint count followed by tagged values; strings and
// byte slices are uvarint length + bytes; floats are fixed 8 (or 4) bytes
// big endian. The gob fallback tag carries a uvarint length + a complete
// single-value gob stream.
//
// There is one format. Decoders reject a frame without wireMagic, with an
// unknown wireVersion or with bytes after its last field, so a layout
// change must bump wireVersion.
const (
	wireMagic   = 0xC7
	wireVersion = 1

	wireInvocation = 'I'
	wireResponse   = 'R'
)

// Value tags. The set mirrors RegisterValueTypes; tagGob is the escape
// hatch for user-registered types.
const (
	tagNil = iota
	tagFalse
	tagTrue
	tagInt     // zigzag varint, decodes as int
	tagInt32   // zigzag varint
	tagInt64   // zigzag varint
	tagUint64  // uvarint
	tagFloat32 // 4 bytes big endian
	tagFloat64 // 8 bytes big endian
	tagString
	tagBytes
	tagIntSlice     // count + zigzag varints
	tagInt64Slice   // count + zigzag varints
	tagFloat64Slice // count + 8 bytes each
	tagFloat64Mat   // row count + one tagFloat64Slice body per row
	tagStringSlice
	tagAnySlice // count + tagged values (recursive)
	tagMapStrAny
	tagMapStrStr
	tagMapStrF64
	tagMapStrI64
	tagGob // uvarint length + single-value gob stream of `any`
)

// maxValueDepth bounds recursion through nested []any / map[string]any
// values so a corrupt or hostile frame cannot overflow the stack.
const maxValueDepth = 64

// CodecStats are process-wide counters of the wire codec, readable at any
// time (ReadCodecStats) and exported on the /metrics endpoint.
type CodecStats struct {
	// FastEncodes and FastDecodes count whole messages through the tag
	// codec.
	FastEncodes uint64
	FastDecodes uint64
	// FallbackValues counts individual values inside fast messages that
	// needed the gob escape hatch (user-registered types).
	FallbackValues uint64
	// StampedDecodes and UnstampedDecodes split decoded invocations by
	// whether they carried an at-most-once (ClientID, Seq) stamp.
	// Unstamped callers (control-plane tools) get at-least-once retries.
	StampedDecodes   uint64
	UnstampedDecodes uint64
	// GobStreams counts gob streams whose type descriptors were sent or
	// compiled afresh: EncodeValue, DecodeValue and the per-value fallback
	// when the descriptor cache (gobcache.go) missed or does not hold
	// the type, and every fallback encode (its value is an interface). A
	// warm encode or decode of a cached type does not count.
	GobStreams uint64
}

var codecStats struct {
	fastEncodes      atomic.Uint64
	fastDecodes      atomic.Uint64
	fallbackValues   atomic.Uint64
	stampedDecodes   atomic.Uint64
	unstampedDecodes atomic.Uint64
	gobStreams       atomic.Uint64
}

// ReadCodecStats returns a snapshot of the process-wide codec counters.
func ReadCodecStats() CodecStats {
	return CodecStats{
		FastEncodes:      codecStats.fastEncodes.Load(),
		FastDecodes:      codecStats.fastDecodes.Load(),
		FallbackValues:   codecStats.fallbackValues.Load(),
		StampedDecodes:   codecStats.stampedDecodes.Load(),
		UnstampedDecodes: codecStats.unstampedDecodes.Load(),
		GobStreams:       codecStats.gobStreams.Load(),
	}
}

// AppendInvocation appends the wire encoding of inv to dst and returns
// the extended slice. Callers on the hot path pass a pooled buffer to
// avoid a per-message allocation; EncodeInvocation wraps it with a fresh
// one.
func AppendInvocation(dst []byte, inv Invocation) ([]byte, error) {
	RegisterValueTypes() // a fallback value may need the gob registrations
	dst = append(dst, wireMagic, wireVersion, wireInvocation)
	dst = AppendString(dst, inv.Ref.Type)
	dst = AppendString(dst, inv.Ref.Key)
	dst = AppendString(dst, inv.Method)
	var err error
	if dst, err = AppendValues(dst, inv.Args); err != nil {
		return nil, fmt.Errorf("core: encode invocation %s.%s: %w", inv.Ref, inv.Method, err)
	}
	if inv.Init == nil && inv.initWire != nil {
		dst = append(dst, inv.initWire...) // still encoded (DecodeInvocationOn)
	} else if dst, err = AppendValues(dst, inv.Init); err != nil {
		return nil, fmt.Errorf("core: encode invocation %s.%s init: %w", inv.Ref, inv.Method, err)
	}
	var flags byte
	if inv.Persist {
		flags |= 1
	}
	if inv.Stamped() {
		flags |= 2
	}
	if inv.ReadOnly {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, inv.Trace.TraceID)
	dst = binary.AppendUvarint(dst, inv.Trace.SpanID)
	if inv.Stamped() {
		dst = binary.AppendUvarint(dst, inv.ClientID)
		dst = binary.AppendUvarint(dst, inv.Seq)
	}
	codecStats.fastEncodes.Add(1)
	return dst, nil
}

// InvocationSize bounds the encoded size of inv from above for every
// argument the tag codec encodes by itself, so that a buffer of this
// capacity takes AppendInvocation without growing; a gob-fallback value,
// and a nested list or map, may still make it grow.
func InvocationSize(inv Invocation) int {
	// Preamble, flags byte and seven varints: three string lengths, the
	// trace and span ids, the stamp.
	n := 3 + len(inv.Ref.Type) + len(inv.Ref.Key) + len(inv.Method) + 1 + 7*binary.MaxVarintLen64
	return n + valuesSize(inv.Args) + valuesSize(inv.Init) + len(inv.initWire)
}

// valuesSize bounds AppendValues' output for vs (see InvocationSize).
func valuesSize(vs []any) int {
	n := binary.MaxVarintLen64
	for _, v := range vs {
		n += 1 + binary.MaxVarintLen64
		switch x := v.(type) {
		case string:
			n += len(x)
		case []byte:
			n += len(x)
		case []int:
			n += len(x) * binary.MaxVarintLen64
		case []int64:
			n += len(x) * binary.MaxVarintLen64
		case []float64:
			n += len(x) * 8
		case []string:
			for _, s := range x {
				n += binary.MaxVarintLen64 + len(s)
			}
		}
	}
	return n
}

// AppendResponse appends the wire encoding of resp to dst.
func AppendResponse(dst []byte, resp Response) ([]byte, error) {
	RegisterValueTypes() // a fallback value may need the gob registrations
	dst = append(dst, wireMagic, wireVersion, wireResponse)
	var err error
	if dst, err = AppendValues(dst, resp.Results); err != nil {
		return nil, fmt.Errorf("core: encode response: %w", err)
	}
	dst = AppendString(dst, resp.Err)
	codecStats.fastEncodes.Add(1)
	return dst, nil
}

// decodeWireInvocation parses exactly one fast-codec invocation. A type
// and key equal to on's take on's strings, and with lazyInit a non-empty
// Init list stays encoded in data (DecodeInvocationOn).
func decodeWireInvocation(data []byte, on Ref, lazyInit bool) (Invocation, error) {
	r := Reader{b: data}
	if err := r.preamble(wireInvocation); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	var inv Invocation
	typ, err := r.BytesView()
	if err == nil {
		inv.Ref.Type = on.Type
		if string(typ) != on.Type {
			inv.Ref.Type = intern(typ)
		}
		var key []byte
		if key, err = r.BytesView(); err == nil {
			inv.Ref.Key = on.Key
			if string(key) != on.Key {
				inv.Ref.Key = string(key)
			}
			inv.Method, err = r.Name()
		}
	}
	if err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	if inv.Args, err = r.Values(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation %s.%s args: %w", inv.Ref, inv.Method, err)
	}
	if lazyInit {
		start := r.off
		var count int
		if count, err = r.skipValues(); count > 0 {
			inv.initWire = data[start:r.off:r.off]
		}
	} else {
		inv.Init, err = r.Values()
	}
	if err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation %s.%s init: %w", inv.Ref, inv.Method, err)
	}
	flags, err := r.Byte()
	if err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	inv.Persist = flags&1 != 0
	inv.ReadOnly = flags&4 != 0
	if inv.Trace.TraceID, err = r.Uvarint(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	if inv.Trace.SpanID, err = r.Uvarint(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	if flags&2 != 0 {
		if inv.ClientID, err = r.Uvarint(); err != nil {
			return Invocation{}, fmt.Errorf("core: decode invocation stamp: %w", err)
		}
		if inv.ClientID == 0 {
			return Invocation{}, fmt.Errorf("core: decode invocation stamp: zero client id")
		}
		if inv.Seq, err = r.Uvarint(); err != nil {
			return Invocation{}, fmt.Errorf("core: decode invocation stamp: %w", err)
		}
	}
	if err := r.End(); err != nil {
		return Invocation{}, fmt.Errorf("core: decode invocation: %w", err)
	}
	codecStats.fastDecodes.Add(1)
	return inv, nil
}

// decodeWireResponse parses exactly one fast-codec response.
func decodeWireResponse(data []byte) (Response, error) {
	r := Reader{b: data}
	if err := r.preamble(wireResponse); err != nil {
		return Response{}, fmt.Errorf("core: decode response: %w", err)
	}
	var resp Response
	var err error
	if resp.Results, err = r.Values(); err != nil {
		return Response{}, fmt.Errorf("core: decode response results: %w", err)
	}
	if resp.Err, err = r.Str(); err != nil {
		return Response{}, fmt.Errorf("core: decode response: %w", err)
	}
	if err := r.End(); err != nil {
		return Response{}, fmt.Errorf("core: decode response: %w", err)
	}
	codecStats.fastDecodes.Add(1)
	return resp, nil
}

// The exported append helpers and Reader are what other packages build
// their tag-encoded frames from — the ACCEPT and lease control frames and
// the transfer record of internal/server, the built-in objects' state
// bodies, the statefun layer's mailbox values: the same field encodings as
// the invocation format, without its preamble. Such a frame starts with one
// tag byte naming it (OpenFrame checks it) and carries no version; its
// decoder rejects anything but exactly its own layout.

// NewFrame starts a frame with its tag, sized for variable bytes of
// strings and payload plus n varints, so that its encoder allocates once.
func NewFrame(tag byte, variable, n int) []byte {
	return append(make([]byte, 0, 1+variable+n*binary.MaxVarintLen64), tag)
}

// OpenFrame checks that data starts with tag and returns a Reader
// positioned after it.
func OpenFrame(data []byte, tag byte) (Reader, error) {
	if len(data) == 0 {
		return Reader{b: data}, errEmptyFrame
	}
	if data[0] != tag {
		return Reader{b: data}, frameTagError{data[0], tag}
	}
	return Reader{b: data, off: 1}, nil
}

// DecodeFrame opens data as a frame with the given tag, reads its fields
// with read and fails when anything trails them. On an error the value is
// whatever read returned and must not be used. read must not keep its
// Reader: DecodeFrame is kept small enough to inline, so that the call of
// read becomes a direct one and the Reader stays on the caller's stack
// instead of costing an allocation per frame.
func DecodeFrame[T any](data []byte, tag byte, read func(*Reader) (T, error)) (v T, err error) {
	r := Reader{b: data, off: 1}
	if len(data) == 0 {
		err = errEmptyFrame
	} else if data[0] != tag {
		err = frameTagError{data[0], tag}
	} else if v, err = read(&r); err == nil && r.off < len(data) {
		err = trailingError{r.off, len(data)}
	}
	return v, err
}

// errEmptyFrame and frameTagError are what OpenFrame and DecodeFrame fail
// with when data does not start with the frame's tag.
var errEmptyFrame = errors.New("truncated at offset 0")

type frameTagError struct{ got, want byte }

func (e frameTagError) Error() string {
	return fmt.Sprintf("frame tag %q, want %q", e.got, e.want)
}

// trailingError is End's error: bytes left after offset off of a frame of
// size bytes.
type trailingError struct{ off, size int }

func (e trailingError) Error() string {
	return fmt.Sprintf("%d trailing bytes at offset %d", e.size-e.off, e.off)
}

// AppendBool appends one byte, 1 for true and 0 for false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendVarint appends a zigzag varint (Reader.Varint).
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendFloat64 appends 8 bytes big endian (Reader.Float64).
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendString appends a uvarint length + bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length + bytes; Reader.Bytes reads it back.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendValue appends one tagged value (Reader.Value). A value outside the
// built-in tag set takes the per-value gob fallback.
func AppendValue(dst []byte, v any) ([]byte, error) { return appendValue(dst, v, 0) }

// AppendValues appends a uvarint count + tagged values.
func AppendValues(dst []byte, vs []any) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if dst, err = appendValue(dst, v, 0); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendValue appends one tagged value. Types outside the built-in set
// take the gob fallback, preserving the RegisterValue contract.
func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("core: value nesting exceeds %d levels", maxValueDepth)
	}
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case int:
		return binary.AppendVarint(append(dst, tagInt), int64(x)), nil
	case int32:
		return binary.AppendVarint(append(dst, tagInt32), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(dst, tagInt64), x), nil
	case uint64:
		return binary.AppendUvarint(append(dst, tagUint64), x), nil
	case float32:
		return binary.BigEndian.AppendUint32(append(dst, tagFloat32), math.Float32bits(x)), nil
	case float64:
		return AppendFloat64(append(dst, tagFloat64), x), nil
	case string:
		return AppendString(append(dst, tagString), x), nil
	case []byte:
		return AppendBytes(append(dst, tagBytes), x), nil
	case []int:
		dst = binary.AppendUvarint(append(dst, tagIntSlice), uint64(len(x)))
		for _, n := range x {
			dst = binary.AppendVarint(dst, int64(n))
		}
		return dst, nil
	case []int64:
		dst = binary.AppendUvarint(append(dst, tagInt64Slice), uint64(len(x)))
		for _, n := range x {
			dst = binary.AppendVarint(dst, n)
		}
		return dst, nil
	case []float64:
		return AppendFloat64s(append(dst, tagFloat64Slice), x), nil
	case [][]float64:
		dst = binary.AppendUvarint(append(dst, tagFloat64Mat), uint64(len(x)))
		for _, row := range x {
			dst = AppendFloat64s(dst, row)
		}
		return dst, nil
	case []string:
		dst = binary.AppendUvarint(append(dst, tagStringSlice), uint64(len(x)))
		for _, s := range x {
			dst = AppendString(dst, s)
		}
		return dst, nil
	case []any:
		dst = binary.AppendUvarint(append(dst, tagAnySlice), uint64(len(x)))
		var err error
		for _, e := range x {
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]any:
		dst = binary.AppendUvarint(append(dst, tagMapStrAny), uint64(len(x)))
		var err error
		for k, e := range x {
			dst = AppendString(dst, k)
			if dst, err = appendValue(dst, e, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]string:
		dst = binary.AppendUvarint(append(dst, tagMapStrStr), uint64(len(x)))
		for k, e := range x {
			dst = AppendString(dst, k)
			dst = AppendString(dst, e)
		}
		return dst, nil
	case map[string]float64:
		dst = binary.AppendUvarint(append(dst, tagMapStrF64), uint64(len(x)))
		for k, e := range x {
			dst = AppendString(dst, k)
			dst = AppendFloat64(dst, e)
		}
		return dst, nil
	case map[string]int64:
		dst = binary.AppendUvarint(append(dst, tagMapStrI64), uint64(len(x)))
		for k, e := range x {
			dst = AppendString(dst, k)
			dst = binary.AppendVarint(dst, e)
		}
		return dst, nil
	default:
		return appendGobValue(dst, v)
	}
}

// AppendFloat64s appends a uvarint count + 8 bytes per element
// (Reader.Float64s).
func AppendFloat64s(dst []byte, x []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(x)))
	for _, f := range x {
		dst = AppendFloat64(dst, f)
	}
	return dst
}

// appendGobValue is the per-value escape hatch: a complete single-value
// gob stream of the dynamic value, so any type accepted by RegisterValue
// keeps working without the fast codec knowing about it. The stream is
// always fresh: it encodes an interface, whose concrete type's descriptor
// a long-lived encoder would send only once (gobcache.go). Its decode in
// Reader.value goes through the descriptor cache.
func appendGobValue(dst []byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	codecStats.gobStreams.Add(1)
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("gob fallback for %T: %w", v, err)
	}
	codecStats.fallbackValues.Add(1)
	dst = binary.AppendUvarint(append(dst, tagGob), uint64(buf.Len()))
	return append(dst, buf.Bytes()...), nil
}

// Reader decodes the tag format from a byte slice. Every length is
// validated against the remaining input before allocating, so corrupt
// frames fail with an error instead of a huge allocation or panic, and
// nothing it returns but BytesView's result aliases the input: a caller
// may keep a decoded message after the (possibly pooled) buffer is
// recycled.
type Reader struct {
	b   []byte
	off int
}

func (r *Reader) remaining() int { return len(r.b) - r.off }

func (r *Reader) preamble(kind byte) error {
	if r.remaining() < 3 {
		return fmt.Errorf("truncated preamble (%d bytes)", r.remaining())
	}
	magic, version, k := r.b[r.off], r.b[r.off+1], r.b[r.off+2]
	r.off += 3
	if magic != wireMagic {
		return fmt.Errorf("bad magic 0x%02x", magic)
	}
	if version != wireVersion {
		return fmt.Errorf("unsupported codec version %d (have %d)", version, wireVersion)
	}
	if k != kind {
		return fmt.Errorf("message kind %q, want %q", k, kind)
	}
	return nil
}

// End fails when input is left after the last field.
func (r *Reader) End() error {
	if r.remaining() > 0 {
		return trailingError{r.off, len(r.b)}
	}
	return nil
}

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("truncated at offset %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Bool reads a byte that must be 0 or 1 (AppendBool).
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	if err == nil && b > 1 {
		err = fmt.Errorf("bad bool byte 0x%02x at offset %d", b, r.off-1)
	}
	return b == 1, err
}

// Varint reads one zigzag varint (AppendVarint).
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Count reads a uvarint element count and validates it against the
// remaining bytes, each element occupying at least minBytes, so a decoder
// can size its result before reading the elements. The division form
// avoids overflow on hostile counts.
func (r *Reader) Count(minBytes int) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remaining())/uint64(minBytes) {
		return 0, fmt.Errorf("count %d exceeds remaining %d bytes", v, r.remaining())
	}
	return int(v), nil
}

func (r *Reader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, r.remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// BytesView reads a length-prefixed string or byte slice (AppendString,
// AppendBytes) in place: unlike everything else Reader returns, the result
// aliases the input, and a caller keeps it only while the input lives.
func (r *Reader) BytesView() ([]byte, error) {
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

// Str reads a length-prefixed string (AppendString). The conversion
// copies.
func (r *Reader) Str() (string, error) {
	b, err := r.BytesView()
	return string(b), err
}

// Bytes reads a length-prefixed byte slice (AppendBytes) into a fresh
// copy. Zero-length slices decode as nil.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Count(1)
	if err != nil || n == 0 {
		return nil, err
	}
	b, err := r.take(n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// Float64 reads 8 bytes big endian (AppendFloat64).
func (r *Reader) Float64() (float64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// Values reads a value list (AppendValues). Zero-length lists decode as
// nil.
func (r *Reader) Values() ([]any, error) {
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]any, n)
	for i := range out {
		if out[i], err = r.value(0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Value reads one tagged value (AppendValue).
func (r *Reader) Value() (any, error) { return r.value(0) }

// skipValues reads past a value list (AppendValues) without building it
// and returns its count. It refuses what Values refuses, but for the
// content of a gob-fallback value, which only a decode reads.
func (r *Reader) skipValues() (int, error) {
	n, err := r.Count(1)
	for i := 0; i < n && err == nil; i++ {
		err = r.skipValue(0)
	}
	return n, err
}

// skipValue reads past one tagged value (see value and skipValues).
func (r *Reader) skipValue(depth int) error {
	if depth > maxValueDepth {
		return fmt.Errorf("value nesting exceeds %d levels", maxValueDepth)
	}
	tag, err := r.Byte()
	if err != nil {
		return err
	}
	// each reads n elements with one, the first error ending the walk.
	each := func(n int, one func() error) error {
		for i := 0; i < n && err == nil; i++ {
			err = one()
		}
		return err
	}
	view := func() error { _, err := r.BytesView(); return err }
	varint := func() error { _, err := r.Varint(); return err }
	var n int
	switch tag {
	case tagNil, tagFalse, tagTrue:
	case tagInt, tagInt32, tagInt64:
		err = varint()
	case tagUint64:
		_, err = r.Uvarint()
	case tagFloat32:
		_, err = r.take(4)
	case tagFloat64:
		_, err = r.take(8)
	case tagString, tagBytes, tagGob:
		err = view()
	case tagIntSlice, tagInt64Slice:
		if n, err = r.Count(1); err == nil {
			err = each(n, varint)
		}
	case tagFloat64Slice:
		if n, err = r.Count(8); err == nil {
			_, err = r.take(8 * n)
		}
	case tagFloat64Mat:
		if n, err = r.Count(1); err == nil {
			err = each(n, func() error {
				m, err := r.Count(8)
				if err == nil {
					_, err = r.take(8 * m)
				}
				return err
			})
		}
	case tagStringSlice:
		if n, err = r.Count(1); err == nil {
			err = each(n, view)
		}
	case tagAnySlice:
		if n, err = r.Count(1); err == nil {
			err = each(n, func() error { return r.skipValue(depth + 1) })
		}
	case tagMapStrAny, tagMapStrStr, tagMapStrF64, tagMapStrI64:
		minBytes := 2
		if tag == tagMapStrF64 {
			minBytes = 9
		}
		if n, err = r.Count(minBytes); err == nil {
			err = each(n, func() error {
				if err := view(); err != nil {
					return err
				}
				switch tag {
				case tagMapStrAny:
					return r.skipValue(depth + 1)
				case tagMapStrStr:
					return view()
				case tagMapStrF64:
					_, err := r.take(8)
					return err
				}
				return varint()
			})
		}
	default:
		err = fmt.Errorf("unknown value tag %d at offset %d", tag, r.off-1)
	}
	return err
}

// value reads one tagged value, reproducing the concrete types gob would
// have delivered so callers' type switches keep working unchanged.
func (r *Reader) value(depth int) (any, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("value nesting exceeds %d levels", maxValueDepth)
	}
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt:
		v, err := r.Varint()
		return int(v), err
	case tagInt32:
		v, err := r.Varint()
		return int32(v), err
	case tagInt64:
		return r.Varint()
	case tagUint64:
		return r.Uvarint()
	case tagFloat32:
		b, err := r.take(4)
		if err != nil {
			return nil, err
		}
		return math.Float32frombits(binary.BigEndian.Uint32(b)), nil
	case tagFloat64:
		return r.Float64()
	case tagString:
		return r.Str()
	case tagBytes:
		return r.Bytes()
	case tagIntSlice:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		out := make([]int, n)
		for i := range out {
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	case tagInt64Slice:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		for i := range out {
			if out[i], err = r.Varint(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagFloat64Slice:
		return r.Float64s()
	case tagFloat64Mat:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		out := make([][]float64, n)
		for i := range out {
			if out[i], err = r.Float64s(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagStringSlice:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		out := make([]string, n)
		for i := range out {
			if out[i], err = r.Str(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagAnySlice:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrAny:
		n, err := r.Count(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := r.Str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrStr:
		n, err := r.Count(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k, err := r.Str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.Str(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrF64:
		n, err := r.Count(9)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k, err := r.Str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.Float64(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagMapStrI64:
		n, err := r.Count(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]int64, n)
		for i := 0; i < n; i++ {
			k, err := r.Str()
			if err != nil {
				return nil, err
			}
			if out[k], err = r.Varint(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case tagGob:
		n, err := r.Count(1)
		if err != nil {
			return nil, err
		}
		b, err := r.take(n)
		if err != nil {
			return nil, err
		}
		var v any
		if err := decodeGob(b, &v); err != nil {
			return nil, fmt.Errorf("gob fallback: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unknown value tag %d at offset %d", tag, r.off-1)
	}
}

// Float64s reads a float64 list (AppendFloat64s). Zero-length lists
// decode as empty, not nil.
func (r *Reader) Float64s() ([]float64, error) {
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = r.Float64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
