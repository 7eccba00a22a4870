// Package durability implements the cold-storage durability tier
// (DESIGN.md §5h): a per-node segmented, checksummed write-ahead log of
// committed SMR deliveries, periodic object-state checkpoints with a
// manifest, and the recovery reader that reconstructs a node's state from
// the latest valid checkpoint plus a replay of the surviving log. The
// package is generic over the payloads it stores — the server layer owns
// what a record or snapshot blob means — and talks to cold storage through
// the minimal Storage interface, which internal/storage/s3sim satisfies.
package durability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record is one committed delivery in the log. Origin and Seq are the
// round's identity (totalorder.MsgID), recorded so replay tooling can
// correlate log entries with traces. Epoch and Version are the round's
// position in its object's order: the view epoch it was sequenced in and
// its seq under that epoch. The position is the replay gate: recovery
// re-applies a record only onto a copy whose position is strictly lower,
// which makes replay idempotent against the checkpoint (a record the
// snapshot already covers is skipped) and against a log read twice.
// Payload is the raw SMR payload exactly as delivered: genesis/batch
// prefix plus the encoded invocation(s) with their (ClientID, Seq) dedup
// stamps.
type Record struct {
	Origin         string
	Seq            uint64
	Epoch, Version uint64
	Payload        []byte
}

// Framing: every record is [len u32][crc u32][body], little-endian, where
// crc is CRC-32 (IEEE) over body. The body packs
// uvarint(len(Origin)) Origin uvarint(Seq) uvarint(Epoch)
// uvarint(Version) Payload,
// with Payload running to the end of the body. A reader that hits a short
// frame reports a torn tail (the flush carrying it never completed); a
// CRC mismatch reports corruption. Both truncate the log at the damage.
const recordHeaderSize = 8

// Errors reported by DecodeSegment at the first damaged record.
var (
	// ErrTornTail marks an incomplete final frame: the segment ends
	// mid-record, the signature of a crash between append and flush
	// completion (or a truncated blob).
	ErrTornTail = errors.New("durability: torn record at segment tail")
	// ErrBadChecksum marks a frame whose body fails its CRC.
	ErrBadChecksum = errors.New("durability: record checksum mismatch")
)

// AppendRecord appends rec's frame to dst and returns the extended slice.
func AppendRecord(dst []byte, rec Record) []byte {
	body := make([]byte, 0, 4*binary.MaxVarintLen64+len(rec.Origin)+len(rec.Payload))
	body = binary.AppendUvarint(body, uint64(len(rec.Origin)))
	body = append(body, rec.Origin...)
	body = binary.AppendUvarint(body, rec.Seq)
	body = binary.AppendUvarint(body, rec.Epoch)
	body = binary.AppendUvarint(body, rec.Version)
	body = append(body, rec.Payload...)

	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// decodeBody unpacks a checksum-verified body into a Record.
func decodeBody(body []byte) (Record, error) {
	var rec Record
	n, w := binary.Uvarint(body)
	if w <= 0 || n > uint64(len(body)-w) {
		return rec, fmt.Errorf("durability: bad origin length")
	}
	rec.Origin = string(body[w : w+int(n)])
	rest := body[w+int(n):]
	for _, f := range []struct {
		name string
		v    *uint64
	}{{"seq", &rec.Seq}, {"epoch", &rec.Epoch}, {"version", &rec.Version}} {
		if *f.v, w = binary.Uvarint(rest); w <= 0 {
			return rec, fmt.Errorf("durability: bad %s varint", f.name)
		}
		rest = rest[w:]
	}
	rec.Payload = append([]byte(nil), rest...)
	return rec, nil
}

// DecodeRecord decodes the first frame of b, returning the record and the
// frame's total size. ErrTornTail means b ends mid-frame; ErrBadChecksum
// means the frame is complete but its body fails the CRC.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < recordHeaderSize {
		return Record{}, 0, ErrTornTail
	}
	bodyLen := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if uint64(bodyLen) > uint64(len(b)-recordHeaderSize) {
		return Record{}, 0, ErrTornTail
	}
	body := b[recordHeaderSize : recordHeaderSize+int(bodyLen)]
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, 0, ErrBadChecksum
	}
	rec, err := decodeBody(body)
	if err != nil {
		// A body that checksums but does not parse is corruption all the
		// same; report it under the checksum error class so readers
		// truncate at it uniformly.
		return Record{}, 0, fmt.Errorf("%w: %v", ErrBadChecksum, err)
	}
	return rec, recordHeaderSize + int(bodyLen), nil
}

// DecodeSegment decodes every intact record of a segment in order. An
// empty segment decodes to zero records and no error. At the first
// damaged frame it stops and returns the records before it together with
// ErrTornTail or ErrBadChecksum — the WAL is prefix-consistent (flushes
// are sequential), so everything after the damage is unreachable history
// and recovery truncates there.
func DecodeSegment(b []byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		b = b[n:]
	}
	return recs, nil
}
