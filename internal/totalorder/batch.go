package totalorder

import (
	"encoding/binary"
	"fmt"
)

// Batch container: the payload framing for group commit. One round (one
// MsgID, one ordering round) may carry several application payloads; the
// SMR layer coalesces concurrent writes to one object into such a batch so
// the whole group pays a single ACCEPT exchange for N operations. The
// ordering is oblivious — a batch is ordered and applied exactly like any
// other payload, and the apply walks its parts in place (WalkBatch).
//
// Wire image: uvarint part count, then per part a uvarint length followed
// by that many bytes.

// AppendBatch appends the batch container for parts to dst and returns
// the extended slice.
func AppendBatch(dst []byte, parts [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(parts)))
	for _, p := range parts {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// WalkBatch validates a batch container built by AppendBatch and hands
// visit each part in place, with its index and the part count, stopping
// at visit's first error. A part aliases data, and visit must not keep it
// past the buffer's lifetime without a copy. visit does not escape, so a
// caller's closure can stay on its stack.
func WalkBatch(data []byte, visit func(i, count int, part []byte) error) error {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("totalorder: bad batch header")
	}
	if count == 0 {
		return fmt.Errorf("totalorder: empty batch")
	}
	if count > uint64(len(data)) {
		// Each part costs at least one length byte, so a count beyond the
		// remaining bytes is corrupt — reject before allocating for it.
		return fmt.Errorf("totalorder: batch count %d exceeds payload", count)
	}
	data = data[n:]
	for i := 0; i < int(count); i++ {
		size, n := binary.Uvarint(data)
		if n <= 0 || size > uint64(len(data)-n) {
			return fmt.Errorf("totalorder: truncated batch part %d", i)
		}
		data = data[n:]
		if err := visit(i, int(count), data[:size:size]); err != nil {
			return err
		}
		data = data[size:]
	}
	if len(data) != 0 {
		return fmt.Errorf("totalorder: %d trailing bytes after batch", len(data))
	}
	return nil
}
