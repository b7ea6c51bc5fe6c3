package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the TCP transport's wire vocabulary: length-prefixed frames
// multiplexing many logical node names over one stream, in the HSMS mold
// (select handshake, linktest heartbeat, deselect goodbye). The layer adds
// no checksums — TCP's are in force, and the guardian wire format above
// carries its own CRC — and no reliability beyond the stream's own:
// everything queued but unsent when a connection dies is gone, which is
// exactly the "ordered until reset" contract streams give.
//
// Frame layout (big endian):
//
//	u32   length of what follows (type byte + body)
//	u8    type
//	...   body
//
// Bodies:
//
//	select / selectAck:  uvarint len + advertised listener address.
//	  The dialer's select names the address its own listener answers at;
//	  the acceptor keys the connection by that string, which is what lets
//	  replies to a learned node name reuse the inbound connection instead
//	  of dialing a second one.
//	deselect:            uvarint len + reason ("idle", "collision", ...).
//	linktest/linktestAck: empty. A linktestAck (or any other frame) proves
//	  the peer's read loop is alive; unanswered linktests are the only way
//	  a half-open connection is ever noticed.
//	data:                uvarint len + source node name,
//	                     uvarint len + destination node name,
//	                     payload (the rest of the body).
//	  Source names tell each logical sender apart even when several
//	  share the stream; destination names pick the attached handler.
//	  The payload is one whole frame of the runtime above: a stream
//	  never cuts frames into packets.
const (
	frameSelect      = byte(1)
	frameSelectAck   = byte(2)
	frameDeselect    = byte(3)
	frameLinktest    = byte(4)
	frameLinktestAck = byte(5)
	frameData        = byte(6)
)

// frameOverhead bounds the non-payload bytes of a data frame: length
// prefix, type, and two uvarint-prefixed names.
const frameOverhead = 4 + 1 + 2*(5+maxNodeName)

// maxNodeName bounds the logical names a data frame may carry. Node names
// are short identifiers; a kilobyte of headroom is generous.
const maxNodeName = 1024

// ErrBadFrame reports a stream protocol violation. It is terminal for the
// connection that produced it: framing state is unrecoverable mid-stream.
var ErrBadFrame = errors.New("transport: malformed tcp frame")

// appendFrame appends one whole frame (length prefix included) to dst.
func appendFrame(dst []byte, typ byte, body ...[]byte) []byte {
	n := 1
	for _, b := range body {
		n += len(b)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, typ)
	for _, b := range body {
		dst = append(dst, b...)
	}
	return dst
}

// encodeString appends a uvarint-prefixed string.
func encodeString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeData builds one data frame carrying payload from src to dst.
func encodeData(src, dst Addr, payload []byte) []byte {
	body := make([]byte, 0, len(payload)+2*(5+len(src)+len(dst)))
	body = encodeString(body, string(src))
	body = encodeString(body, string(dst))
	body = append(body, payload...)
	return appendFrame(make([]byte, 0, 5+len(body)), frameData, body)
}

// encodeControl builds a control frame with an optional string body
// (advertised address for select/selectAck, reason for deselect).
func encodeControl(typ byte, s string) []byte {
	var body []byte
	if typ != frameLinktest && typ != frameLinktestAck {
		body = encodeString(make([]byte, 0, 5+len(s)), s)
	}
	return appendFrame(make([]byte, 0, 5+1+len(body)), typ, body)
}

// readFrame reads one frame, bounding the body at max bytes. A frame
// larger than the bound is a protocol violation, not a big message: the
// sender enforces the same bound, so an oversized length means the stream
// is desynchronized or hostile.
func readFrame(br *bufio.Reader, max int) (typ byte, body []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 || n > max+1 {
		return 0, nil, fmt.Errorf("%w: frame length %d (max %d)", ErrBadFrame, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// decodeString consumes one uvarint-prefixed string from body.
func decodeString(body []byte, maxLen int) (string, []byte, error) {
	n, k := binary.Uvarint(body)
	if k <= 0 || n > uint64(maxLen) || uint64(len(body)-k) < n {
		return "", nil, ErrBadFrame
	}
	return string(body[k : k+int(n)]), body[k+int(n):], nil
}

// decodeData splits a data frame body into its source, destination and
// payload. The payload aliases body; callers own body and hand the slice
// to exactly one handler, so no copy is needed.
func decodeData(body []byte) (src, dst Addr, payload []byte, err error) {
	s, rest, err := decodeString(body, maxNodeName)
	if err != nil {
		return "", "", nil, err
	}
	d, rest, err := decodeString(rest, maxNodeName)
	if err != nil {
		return "", "", nil, err
	}
	return Addr(s), Addr(d), rest, nil
}

// decodeControl extracts the string body of a select/selectAck/deselect.
func decodeControl(body []byte) (string, error) {
	s, rest, err := decodeString(body, 4096)
	if err != nil || len(rest) != 0 {
		return "", ErrBadFrame
	}
	return s, nil
}
