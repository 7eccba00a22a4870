package rpc

import "encoding/binary"

// Frame inspection helpers. MemNetwork's delivery point cuts its byte
// streams into whole frames with them, a Verdict classifies frames by
// their FrameMeta, and transport wrappers that count traffic use them to
// do the same cut, without re-implementing — or depending on the layout
// details of — the codec above the stream.

// FrameHeaderSize is the fixed size of a frame header on the wire:
// uint32 payload length, uint64 request id, kind byte, flags byte.
const FrameHeaderSize = headerSize

// FrameMeta describes one frame header.
type FrameMeta struct {
	// PayloadLen is the length of the payload that follows the header.
	PayloadLen int
	// ID is the request id multiplexing concurrent calls on a connection.
	ID uint64
	// Kind is the application-level message kind (server.Kind*).
	Kind uint8
	// Flags carries the request/response/error bits.
	Flags uint8
}

// IsRequest reports whether the frame travels caller -> callee.
func (m FrameMeta) IsRequest() bool { return m.Flags&flagRequest != 0 }

// IsResponse reports whether the frame travels callee -> caller.
func (m FrameMeta) IsResponse() bool { return m.Flags&flagResponse != 0 }

// ParseFrameHeader decodes the first FrameHeaderSize bytes of a frame.
// hdr must be at least FrameHeaderSize long.
func ParseFrameHeader(hdr []byte) FrameMeta {
	return FrameMeta{
		PayloadLen: int(binary.BigEndian.Uint32(hdr[0:4])),
		ID:         binary.BigEndian.Uint64(hdr[4:12]),
		Kind:       hdr[12],
		Flags:      hdr[13],
	}
}
