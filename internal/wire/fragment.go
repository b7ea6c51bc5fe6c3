package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// This file implements §3.4 step 3: "The message is sent (after being
// broken into packets if necessary)" and the receiving side's rule that a
// message is forwarded to its port only "when the message is entirely and
// correctly received at the receiving node (i.e., all packets have arrived,
// and the bits of the message are not in error)".

// Packet header layout (big endian):
//
//	byte  0     magic 'K'
//	bytes 1-8   message id
//	then uvarint index, uvarint count, uvarint payload length, payload,
//	and a trailing CRC-32C over everything before it.
const packetMagic = 0x4B

// Fragmentation errors.
var (
	ErrBadPacket    = errors.New("wire: malformed packet")
	ErrPacketCRC    = errors.New("wire: packet checksum mismatch")
	ErrInconsistent = errors.New("wire: packet inconsistent with earlier fragments")
)

// packetOverhead is a safe upper bound on header+trailer bytes per packet.
const packetOverhead = 1 + 8 + 5 + 5 + 5 + 4

// Fragment splits a marshalled frame into packets no larger than mtu. When
// mtu is zero or the frame (plus one header) fits, a single packet is
// produced. The msgID ties the fragments back together at the receiver.
func Fragment(msgID uint64, frame []byte, mtu int) ([][]byte, error) {
	count, chunk, err := PacketCount(len(frame), mtu)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		payload := frame[i*chunk : min((i+1)*chunk, len(frame))]
		out = append(out, AppendPacket(make([]byte, 0, len(payload)+packetOverhead), msgID, i, count, payload))
	}
	return out, nil
}

// PacketCount reports how many packets of at most mtu bytes a frame of
// frameLen bytes needs, and how many frame bytes each carries (the last
// may carry fewer). A zero mtu means one packet.
func PacketCount(frameLen, mtu int) (count, chunk int, err error) {
	if frameLen == 0 {
		return 0, 0, errors.New("wire: empty frame")
	}
	chunk = frameLen
	if mtu > 0 {
		avail := mtu - packetOverhead
		if avail <= 0 {
			return 0, 0, fmt.Errorf("wire: MTU %d cannot fit packet overhead %d", mtu, packetOverhead)
		}
		chunk = min(chunk, avail)
	}
	return (frameLen + chunk - 1) / chunk, chunk, nil
}

// AppendPacket appends packet index of count, carrying payload under
// msgID, to dst: the header, the payload and the trailing checksum.
func AppendPacket(dst []byte, msgID uint64, index, count int, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, packetMagic)
	dst = binary.BigEndian.AppendUint64(dst, msgID)
	dst = binary.AppendUvarint(dst, uint64(index))
	dst = binary.AppendUvarint(dst, uint64(count))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// parsedPacket is one decoded, checksum-verified fragment.
type parsedPacket struct {
	msgID   uint64
	index   uint64
	count   uint64
	payload []byte
}

// parsePacket verifies the packet checksum and decodes the header. Corrupt
// packets fail here and are dropped, which is how "the bits of the message
// are not in error" is enforced.
func parsePacket(pkt []byte) (parsedPacket, error) {
	var p parsedPacket
	// Minimum well-formed packet: magic(1) + id(8) + three 1-byte varints
	// + empty payload + CRC(4).
	if len(pkt) < 16 {
		return p, ErrBadPacket
	}
	body, sum := pkt[:len(pkt)-4], binary.BigEndian.Uint32(pkt[len(pkt)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return p, ErrPacketCRC
	}
	if body[0] != packetMagic {
		return p, ErrBadPacket
	}
	r := reader{buf: body, off: 1}
	idBytes, err := r.take(8)
	if err != nil {
		return p, ErrBadPacket
	}
	p.msgID = binary.BigEndian.Uint64(idBytes)
	if p.index, err = r.uvarint(); err != nil {
		return p, ErrBadPacket
	}
	if p.count, err = r.uvarint(); err != nil {
		return p, ErrBadPacket
	}
	n, err := r.uvarint()
	if err != nil {
		return p, ErrBadPacket
	}
	if p.payload, err = r.take(n); err != nil {
		return p, ErrBadPacket
	}
	if r.remaining() != 0 || p.count == 0 || p.index >= p.count {
		return p, ErrBadPacket
	}
	return p, nil
}

// Reassembler collects fragments per (sender, message id) and yields the
// complete frame once every fragment has arrived. Duplicate fragments are
// ignored; partial messages are evicted by Sweep after MaxAge, modeling the
// receiver giving up on a message some of whose packets were lost.
type Reassembler struct {
	mu      sync.Mutex
	pending map[reasmKey]*reasmState
	// completed remembers recently finished message ids so duplicated
	// trailing fragments do not resurrect a message.
	completed map[reasmKey]time.Time
}

type reasmKey struct {
	sender string
	msgID  uint64
}

type reasmState struct {
	parts    [][]byte
	have     int
	count    int
	firstAdd time.Time
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{
		pending:   make(map[reasmKey]*reasmState),
		completed: make(map[reasmKey]time.Time),
	}
}

// Add processes one packet from sender. When the packet completes a
// message it returns the reassembled frame bytes; otherwise it returns nil.
// Corrupt or inconsistent packets return an error and are dropped. now is
// the receiver's clock reading, used for age-based eviction. A message of
// one packet is returned in place, as a subslice of pkt, so the caller
// must not reuse pkt while it holds that frame; a longer message is
// assembled into a fresh buffer.
func (ra *Reassembler) Add(sender string, pkt []byte, now time.Time) ([]byte, error) {
	p, err := parsePacket(pkt)
	if err != nil {
		return nil, err
	}
	key := reasmKey{sender, p.msgID}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if _, done := ra.completed[key]; done {
		return nil, nil // duplicate of an already-delivered message
	}
	st, ok := ra.pending[key]
	if !ok && p.count == 1 {
		ra.completed[key] = now
		return p.payload, nil
	}
	if !ok {
		st = &reasmState{parts: make([][]byte, p.count), count: int(p.count), firstAdd: now}
		ra.pending[key] = st
	}
	if int(p.count) != st.count {
		return nil, fmt.Errorf("%w: count %d vs %d", ErrInconsistent, p.count, st.count)
	}
	if st.parts[p.index] != nil {
		return nil, nil // duplicate fragment
	}
	buf := make([]byte, len(p.payload))
	copy(buf, p.payload)
	st.parts[p.index] = buf
	st.have++
	if st.have < st.count {
		return nil, nil
	}
	delete(ra.pending, key)
	ra.completed[key] = now
	total := 0
	for _, part := range st.parts {
		total += len(part)
	}
	frame := make([]byte, 0, total)
	for _, part := range st.parts {
		frame = append(frame, part...)
	}
	return frame, nil
}

// Sweep evicts partial messages older than maxAge and forgets completed
// ids older than maxAge. It returns the number of partial messages
// abandoned (each is a message that will never be delivered — exactly the
// paper's best-effort contract).
func (ra *Reassembler) Sweep(now time.Time, maxAge time.Duration) int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	dropped := 0
	for k, st := range ra.pending {
		if now.Sub(st.firstAdd) > maxAge {
			delete(ra.pending, k)
			dropped++
		}
	}
	for k, t := range ra.completed {
		if now.Sub(t) > maxAge {
			delete(ra.completed, k)
		}
	}
	return dropped
}

// Pending reports the number of incomplete messages held.
func (ra *Reassembler) Pending() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return len(ra.pending)
}
