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
// other payload, and the apply splits it back into its parts.
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

// SplitBatch decodes a batch container built by AppendBatch. The returned
// sub-payloads alias data; they must not be retained past the buffer's
// lifetime without a copy.
func SplitBatch(data []byte) ([][]byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("totalorder: bad batch header")
	}
	if count == 0 {
		return nil, fmt.Errorf("totalorder: empty batch")
	}
	if count > uint64(len(data)) {
		// Each part costs at least one length byte, so a count beyond the
		// remaining bytes is corrupt — reject before allocating for it.
		return nil, fmt.Errorf("totalorder: batch count %d exceeds payload", count)
	}
	data = data[n:]
	parts := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(data)
		if n <= 0 || size > uint64(len(data)-n) {
			return nil, fmt.Errorf("totalorder: truncated batch part %d", i)
		}
		data = data[n:]
		parts = append(parts, data[:size:size])
		data = data[size:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("totalorder: %d trailing bytes after batch", len(data))
	}
	return parts, nil
}
