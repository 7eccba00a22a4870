package objects

import (
	"testing"

	"crucial/internal/core"
	"crucial/internal/core/codectest"
)

// stateCodec is a Snapshotter's state body as a codectest.Codec: Encode
// snapshots, Decode restores into a fresh object.
func stateCodec[T core.Snapshotter](name string, sample T, fresh func() T) codectest.Codec {
	return codectest.Of(name, sample,
		func(v T) ([]byte, error) { return v.Snapshot() },
		func(b []byte) (T, error) {
			v := fresh()
			return v, v.Restore(b)
		})
}

// stateBodies lists every built-in Snapshotter with a sample that sets
// every field; the any-valued ones hold built-in values of several tags
// (maps of one entry, so that only the Map's bytes follow map order).
func stateBodies() []codectest.Codec {
	values := []any{int64(-3), "s", []byte{1, 2}, map[string]any{"k": 1.5}, []any{true, nil, []string{"x"}}}
	m := stateCodec("Map", &Map{entries: map[string]any{"a": values[0], "b": values[2], "c": values[3], "d": values[4]}},
		func() *Map { return &Map{} })
	m.Unordered = true
	kv := make([]byte, 256)
	for i := range kv {
		kv[i] = byte(i)
	}
	return []codectest.Codec{
		stateCodec("AtomicInt64", &AtomicInt64{value: -1 << 40}, func() *AtomicInt64 { return &AtomicInt64{} }),
		stateCodec("AtomicBoolean", &AtomicBoolean{value: true}, func() *AtomicBoolean { return &AtomicBoolean{} }),
		stateCodec("AtomicReference", &AtomicReference{value: values}, func() *AtomicReference { return &AtomicReference{} }),
		stateCodec("AtomicByteArray", &AtomicByteArray{data: []byte("bytes")}, func() *AtomicByteArray { return &AtomicByteArray{} }),
		stateCodec("List", &List{items: values}, func() *List { return &List{} }),
		m,
		stateCodec("KV", &KV{data: kv, set: true}, func() *KV { return &KV{} }),
		stateCodec("DoubleAdder", &DoubleAdder{sum: 2.5, count: 7}, func() *DoubleAdder { return &DoubleAdder{} }),
		stateCodec("AtomicDoubleArray", &AtomicDoubleArray{data: []float64{1, -0.5}},
			func() *AtomicDoubleArray { return &AtomicDoubleArray{} }),
	}
}

// Every state body round-trips without aliasing the buffer it was restored
// from, and its Restore refuses every proper prefix, a trailing byte and
// every other type's body.
func TestStateBodiesRoundTripAndRejectTruncation(t *testing.T) {
	codectest.CheckFrames(t, stateBodies())
}

// FuzzStateBodies throws raw bytes at every built-in Restore, under the
// rules of codectest.FuzzFrames.
func FuzzStateBodies(f *testing.F) {
	codectest.FuzzFrames(f, stateBodies(),
		[]byte{stateKV, 2, 0},                     // a bool byte that is neither 0 nor 1
		[]byte{stateMap, 2, 1, 'k', 0, 1, 'k', 0}) // a key listed twice
}
