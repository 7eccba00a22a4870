package durability

import (
	"bytes"
	"errors"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Origin: "dso-01", Seq: 1, Epoch: 1, Version: 1, Payload: []byte{1, 'a', 'b'}},
		{Origin: "dso-02", Seq: 9, Epoch: 7, Version: 2, Payload: nil},
		{Origin: "", Seq: 0, Epoch: 0, Version: 0, Payload: []byte("genesis payload with some length")},
	}
}

func encodeAll(recs []Record) []byte {
	var b []byte
	for _, r := range recs {
		b = AppendRecord(b, r)
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecords()
	got, err := DecodeSegment(encodeAll(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Origin != want[i].Origin || got[i].Seq != want[i].Seq ||
			got[i].Epoch != want[i].Epoch || got[i].Version != want[i].Version || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeEmptySegment(t *testing.T) {
	recs, err := DecodeSegment(nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty segment = (%d records, %v), want (0, nil)", len(recs), err)
	}
}

func TestDecodeTornTail(t *testing.T) {
	seg := encodeAll(sampleRecords())
	for cut := 1; cut < 8; cut++ {
		// Chop partway into the LAST frame: a crash mid-flush.
		torn := seg[:len(seg)-cut]
		recs, err := DecodeSegment(torn)
		if !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("cut %d: err = %v, want torn tail or checksum", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut %d: %d records survive, want the 2 intact ones", cut, len(recs))
		}
	}
}

func TestDecodeCorruptCRCMidSegment(t *testing.T) {
	recs := sampleRecords()
	seg := encodeAll(recs)
	// Flip a byte inside the SECOND record's body.
	first := encodeAll(recs[:1])
	seg[len(first)+recordHeaderSize] ^= 0xFF
	got, err := DecodeSegment(seg)
	if !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
	if len(got) != 1 {
		t.Fatalf("%d records before the damage, want 1 — corruption must truncate, not skip", len(got))
	}
	if got[0].Origin != recs[0].Origin {
		t.Fatalf("surviving record = %+v", got[0])
	}
}

func TestDecodeRecordShortHeader(t *testing.T) {
	if _, _, err := DecodeRecord([]byte{1, 2, 3}); !errors.Is(err, ErrTornTail) {
		t.Fatalf("short header err = %v, want ErrTornTail", err)
	}
}
