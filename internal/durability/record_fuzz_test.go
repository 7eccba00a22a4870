package durability

import (
	"bytes"
	"testing"
)

// FuzzDecodeSegment feeds arbitrary bytes to the segment decoder — the one
// component that parses data straight off cold storage, where a torn flush
// or bit rot produces exactly this kind of input. Invariants: never panic,
// and every record the decoder does accept must re-encode byte-identically
// to the prefix it was decoded from (the codec is canonical, so a decoded
// record that would not round-trip is a parser bug, not damage).
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeAll(sampleRecords()))
	f.Add(encodeAll(sampleRecords())[:11])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	long := AppendRecord(nil, Record{Origin: "node-with-a-long-name", Seq: 1 << 60, Epoch: 1 << 40, Version: 1 << 50, Payload: bytes.Repeat([]byte{0xAB}, 300)})
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := DecodeSegment(data)
		var enc []byte
		for _, r := range recs {
			enc = AppendRecord(enc, r)
		}
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("decoded records do not re-encode to the input prefix:\n in: %x\nout: %x", data, enc)
		}
	})
}
