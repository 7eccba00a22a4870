package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

type gobFlat struct {
	A int64
	B string
	C float64
}

type gobNested struct {
	Name  string
	Flat  *gobFlat
	Items []gobFlat
	Index map[string]int64
	Raw   []byte
}

type gobHolder struct {
	Tag string
	V   any
}

type gobPayload struct{ N int32 }

// gobNarrow shares gobFlat's wire type name-for-name but keeps only some
// of its fields, in narrower types.
type gobNarrow struct {
	A int32
	B string
}

func init() { RegisterValue(gobPayload{}) }

// resetGobCache empties both tables, so a test sees a type's first use.
func resetGobCache() {
	gobTables.mu.Lock()
	gobTables.types, gobTables.prefixes = nil, nil
	gobTables.mu.Unlock()
}

func gobCacheSizes() (types, prefixes int) {
	gobTables.mu.Lock()
	defer gobTables.mu.Unlock()
	return len(gobTables.types), len(gobTables.prefixes)
}

// freshGob is what EncodeValue wrote before the cache: a new stream.
func freshGob(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gobSamples() []any {
	flat := gobFlat{A: -7, B: "flat", C: 2.5}
	nested := gobNested{Name: "n", Flat: &flat, Items: []gobFlat{flat, {A: 1}}, Index: map[string]int64{"k": 9}, Raw: []byte{1, 2, 3}}
	return []any{int64(42), "hello", []byte("bytes"), flat, nested, &nested}
}

// The 1st, 2nd and 100th EncodeValue of a type are each byte-equal to a
// fresh single-value gob stream, *T beside T included.
func TestEncodeValueMatchesFreshStream(t *testing.T) {
	resetGobCache()
	for _, v := range gobSamples() {
		want := freshGob(t, v)
		for i := 1; i <= 100; i++ {
			got, err := EncodeValue(v)
			if err != nil {
				t.Fatal(err)
			}
			if (i == 1 || i == 2 || i == 100) && !bytes.Equal(got, want) {
				t.Fatalf("%T: encode %d = %x, fresh stream %x", v, i, got, want)
			}
		}
	}
	// A type's definitions do not depend on the value: a stream primed by
	// an empty value (nil pointer, no items) still matches later ones.
	type sparse struct {
		P *gobFlat
		M map[string]gobNarrow
	}
	for _, v := range []sparse{{}, {P: &gobFlat{A: 1}, M: map[string]gobNarrow{"k": {A: 2}}}} {
		if got, err := EncodeValue(v); err != nil || !bytes.Equal(got, freshGob(t, v)) {
			t.Fatalf("%+v: encode = %x (%v), fresh stream %x", v, got, err, freshGob(t, v))
		}
	}
	if types, _ := gobCacheSizes(); types != len(gobSamples())+1 {
		t.Fatalf("encoder table holds %d types, want %d", types, len(gobSamples())+1)
	}
}

// A type from which an interface is reachable takes fresh streams: an
// encoder primed by a builtin value behind the interface would send a user
// type's descriptor in its next stream and leave it out of the one after.
func TestEncodeValueInterfaceTypesStayFresh(t *testing.T) {
	resetGobCache()
	before := ReadCodecStats().GobStreams
	for i, v := range []gobHolder{{Tag: "h", V: int64(1)}, {Tag: "h", V: gobPayload{N: 3}}, {Tag: "h", V: gobPayload{N: 3}}} {
		got, err := EncodeValue(v)
		if want := freshGob(t, v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encode %d = %x (%v), fresh stream %x", i, got, err, want)
		}
	}
	if n := ReadCodecStats().GobStreams - before; n != 3 {
		t.Fatalf("three encodes of an interface-carrying type opened %d fresh streams, want 3", n)
	}
}

// Fresh streams decode through a primed decoder into the values a fresh
// decoder gives: after the first, no descriptor is compiled again. Two
// target types share one wire type, and one stream carries an interface
// value. A user type behind an interface has its definition sent in the
// middle of the value, so that stream does not split and decodes afresh
// every time.
func TestDecodeValuePrimedMatchesFresh(t *testing.T) {
	resetGobCache()
	flat := gobFlat{A: 5, B: "five", C: 0.5}
	holder := gobHolder{Tag: "h", V: int64(11)}
	nested := gobSamples()[4].(gobNested)
	cases := []struct {
		v   any
		out func() any // a pointer to a fresh target
	}{
		{int64(-3), func() any { return new(int64) }},
		{int64(-3), func() any { return new(int) }},
		{flat, func() any { return new(gobFlat) }},
		{flat, func() any { return new(gobNarrow) }},
		{nested, func() any { return new(gobNested) }},
		{holder, func() any { return new(gobHolder) }},
	}
	for round := 0; round < 3; round++ {
		before := ReadCodecStats().GobStreams
		for _, c := range cases {
			data := freshGob(t, c.v)
			got, want := c.out(), c.out()
			if err := DecodeValue(data, got); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: %T into %T = %+v, fresh decoder %+v", round, c.v, got, got, want)
			}
		}
		if n := ReadCodecStats().GobStreams - before; round > 0 && n != 0 {
			t.Fatalf("round %d compiled %d streams afresh, want 0", round, n)
		}
	}
	if _, dec := gobCacheSizes(); dec != 4 { // int64, gobFlat, gobNested, gobHolder
		t.Fatalf("decoder table holds %d prefixes, want 4", dec)
	}

	data := freshGob(t, gobHolder{Tag: "p", V: gobPayload{N: 11}})
	if _, ok := splitGobStream(data); ok {
		t.Fatal("a stream defining a type inside its value split")
	}
	for i := 0; i < 2; i++ {
		var got gobHolder
		if err := DecodeValue(data, &got); err != nil || got.V != (gobPayload{N: 11}) {
			t.Fatalf("decode %d = %+v (%v)", i, got, err)
		}
	}
}

// A corrupt or truncated value message behind a valid prefix fails as a
// fresh decode does, and the next good value still decodes.
func TestDecodeValueCorruptValueMessage(t *testing.T) {
	resetGobCache()
	good := freshGob(t, gobFlat{A: 1, B: "b", C: 3})
	var out gobFlat
	if err := DecodeValue(good, &out); err != nil {
		t.Fatal(err)
	}
	n, ok := splitGobStream(good)
	if !ok {
		t.Fatal("a fresh stream does not split")
	}
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] = 0xff // the struct's closing delta becomes a bad field number
	wrongType := bytes.Clone(good)
	wrongType[n+1] = 0x02 // the value message names type id 1 (bool)
	for name, bad := range map[string][]byte{
		"truncated":  good[:len(good)-2],
		"corrupt":    corrupt,
		"wrong type": wrongType,
		"trailing":   append(bytes.Clone(good), 0x01),
	} {
		want := gob.NewDecoder(bytes.NewReader(bad)).Decode(new(gobFlat))
		err := DecodeValue(bad, new(gobFlat))
		if want == nil {
			if err != nil {
				t.Fatalf("%s: DecodeValue = %v, a fresh decode succeeds", name, err)
			}
		} else if err == nil || err.Error() != "core: decode value: "+want.Error() {
			t.Fatalf("%s: DecodeValue = %v, want the fresh decode's %v", name, err, want)
		}
		out = gobFlat{}
		if err := DecodeValue(good, &out); err != nil || out != (gobFlat{A: 1, B: "b", C: 3}) {
			t.Fatalf("after %s: the good stream decodes to %+v (%v)", name, out, err)
		}
	}
}

// Both tables stay within maxGobTypes entries, and values past the bound
// still round-trip on fresh streams.
func TestGobCacheBounded(t *testing.T) {
	resetGobCache()
	defer resetGobCache()
	for i := 0; i < maxGobTypes+44; i++ {
		typ := reflect.StructOf([]reflect.StructField{{Name: fmt.Sprintf("F%d", i), Type: reflect.TypeOf(int64(0))}})
		v := reflect.New(typ).Elem()
		v.Field(0).SetInt(int64(i))
		data, err := EncodeValue(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		out := reflect.New(typ)
		if err := DecodeValue(data, out.Interface()); err != nil {
			t.Fatal(err)
		}
		if got := out.Elem().Field(0).Int(); got != int64(i) {
			t.Fatalf("type %d decoded %d", i, got)
		}
	}
	if types, prefixes := gobCacheSizes(); types > maxGobTypes || prefixes > maxGobTypes {
		t.Fatalf("tables hold %d types and %d prefixes, bound %d", types, prefixes, maxGobTypes)
	}
}

// A stream over maxGobCachedBytes leaves no coder behind.
func TestGobCacheDropsLargeBuffers(t *testing.T) {
	resetGobCache()
	big := gobNested{Name: "big", Raw: make([]byte, maxGobCachedBytes+1)}
	data, err := EncodeValue(big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, freshGob(t, big)) {
		t.Fatal("a large encode is not a fresh stream")
	}
	var out gobNested
	if err := DecodeValue(data, &out); err != nil || len(out.Raw) != len(big.Raw) {
		t.Fatalf("large decode: %d bytes (%v)", len(out.Raw), err)
	}
	gobTables.mu.Lock()
	e := gobTables.types[reflect.TypeOf(big)]
	prefixes := len(gobTables.prefixes)
	gobTables.mu.Unlock()
	e.mu.Lock()
	idle := len(e.idle)
	e.mu.Unlock()
	if idle != 0 || prefixes != 0 {
		t.Fatalf("after one large value the cache keeps %d encoders and %d decoder prefixes, want 0", idle, prefixes)
	}
}

// An entry keeps at most maxIdleGobCoders idle coders, holding at most
// maxGobCachedBytes together.
func TestGobCoderListBounded(t *testing.T) {
	var l coders[gobDecoder]
	for i := 0; i < maxIdleGobCoders+2; i++ {
		l.put(&gobDecoder{}, 10)
	}
	if len(l.idle) != maxIdleGobCoders || l.bytes != 10*maxIdleGobCoders {
		t.Fatalf("list keeps %d coders holding %d bytes, want %d holding %d", len(l.idle), l.bytes, maxIdleGobCoders, 10*maxIdleGobCoders)
	}
	for len(l.idle) > 0 {
		l.take()
	}
	for i := 0; i < 3; i++ {
		l.put(&gobDecoder{}, maxGobCachedBytes/2)
	}
	if len(l.idle) != 2 || l.bytes != maxGobCachedBytes {
		t.Fatalf("list keeps %d coders holding %d bytes, want 2 holding %d", len(l.idle), l.bytes, maxGobCachedBytes)
	}
}

// A user GobEncode or GobDecode may encode or decode its own type again
// while gob runs it: no lock is held across it.
func TestGobCacheReentrant(t *testing.T) {
	in := gobTree{Name: "root", Kids: []gobTree{{Name: "a"}, {Name: "b", Kids: []gobTree{{Name: "c"}}}}}
	for i := 0; i < 3; i++ {
		data, err := EncodeValue(in)
		if err != nil {
			t.Fatal(err)
		}
		var out gobTree
		if err := DecodeValue(data, &out); err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("round %d: %+v (%v)", i, out, err)
		}
	}
}

// gobTree encodes its children with EncodeValue, one stream each, from
// inside its own GobEncode.
type gobTree struct {
	Name string
	Kids []gobTree
}

func (n gobTree) GobEncode() ([]byte, error) {
	kids := make([][]byte, len(n.Kids))
	for i, k := range n.Kids {
		b, err := EncodeValue(k)
		if err != nil {
			return nil, err
		}
		kids[i] = b
	}
	return EncodeValue(gobTreeWire{Name: n.Name, Kids: kids})
}

func (n *gobTree) GobDecode(data []byte) error {
	var w gobTreeWire
	if err := DecodeValue(data, &w); err != nil {
		return err
	}
	n.Name, n.Kids = w.Name, nil
	for _, b := range w.Kids {
		var k gobTree
		if err := DecodeValue(b, &k); err != nil {
			return err
		}
		n.Kids = append(n.Kids, k)
	}
	return nil
}

type gobTreeWire struct {
	Name string
	Kids [][]byte
}

// Sixteen goroutines encoding and decoding one type share its entries
// (run under -race by make verify).
func TestGobCacheConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := gobFlat{A: int64(g*1000 + i), B: fmt.Sprint(g), C: float64(i)}
				data, err := EncodeValue(in)
				if err != nil {
					errs <- err
					return
				}
				var out gobFlat
				if err := DecodeValue(data, &out); err != nil || out != in {
					errs <- fmt.Errorf("goroutine %d: %+v decoded as %+v (%v)", g, in, out, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// gobRoundTripAllocBudget bounds a warm small-struct EncodeValue plus
// DecodeValue: the boxing of the argument, the returned stream, the
// decoder's copy of the value message and the string field, against 174
// when every call opened a fresh stream. It reads 4 on the 2-vCPU
// reference box (go1.24, 2026-10-19).
const gobRoundTripAllocBudget = 8

func TestGobValueRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counting is meaningless under -race")
	}
	in := gobFlat{A: 3, B: "small", C: 1.5}
	var out gobFlat
	got := testing.AllocsPerRun(200, func() {
		data, err := EncodeValue(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeValue(data, &out); err != nil {
			t.Fatal(err)
		}
	})
	if got > gobRoundTripAllocBudget {
		t.Fatalf("warm gob value round trip allocates %.1f/op, budget %d", got, gobRoundTripAllocBudget)
	}
	t.Logf("warm gob value round trip allocates %.1f/op (budget %d)", got, gobRoundTripAllocBudget)
}

// FuzzGobValue: on any input, DecodeValue (through the cache) and a fresh
// gob decoder agree on success or failure and on the value.
func FuzzGobValue(f *testing.F) {
	for _, v := range gobSamples() {
		f.Add(freshGob(f, v))
	}
	f.Add(freshGob(f, gobHolder{Tag: "x", V: gobPayload{N: 1}}))
	f.Add(freshGob(f, gobNarrow{A: 1}))
	var iv any = gobPayload{N: 2}
	f.Add(freshGob(f, &iv))
	targets := []func() any{
		func() any { return new(int64) },
		func() any { return new(string) },
		func() any { return new(gobFlat) },
		func() any { return new(gobNested) },
		func() any { return new(gobHolder) },
		func() any { return new(any) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, target := range targets {
			cached, fresh := target(), target()
			errC := DecodeValue(data, cached)
			errF := gob.NewDecoder(bytes.NewReader(data)).Decode(fresh)
			if (errC == nil) != (errF == nil) {
				t.Fatalf("into %T: cached decode %v, fresh decode %v", cached, errC, errF)
			}
			if errC == nil && !sameDecode(reflect.ValueOf(cached).Elem().Interface(), reflect.ValueOf(fresh).Elem().Interface()) {
				t.Fatalf("into %T: cached %+v, fresh %+v", cached, cached, fresh)
			}
		}
	})
}
