package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/xrep"
)

// Frame is a complete message as constructed by the send command (§3.4
// step 2): the destination port, the command identifier, the encoded
// arguments, and the optional replyto port (which "is really an extra
// argument of the message").
type Frame struct {
	// Dest is the target port's global name.
	Dest xrep.PortName
	// SrcNode is the sending node's address, used to route system failure
	// replies and for reassembly keying.
	SrcNode string
	// MsgID is unique per sending node; it keys fragment reassembly.
	MsgID uint64
	// SrcGuardian identifies the sending guardian on SrcNode. The runtime
	// stamps it; receiving guardians may use it as the principal for
	// access-control checks (§2.3).
	SrcGuardian uint64
	// Command is the command identifier.
	Command string
	// Args holds the already-encoded argument values, left to right.
	Args xrep.Seq
	// ReplyTo, when non-zero, is where responses (including system failure
	// messages) should be sent.
	ReplyTo xrep.PortName
}

// Frame format constants.
const (
	frameMagic   = 0x4C477D9 // "LG" + 1979 & 0xFFF
	frameVersion = 1

	flagHasReply = 0x01
)

// Frame errors.
var (
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrBadVersion  = errors.New("wire: unsupported frame version")
	ErrBadChecksum = errors.New("wire: frame checksum mismatch")
	ErrFrameShort  = errors.New("wire: frame too short")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Marshal encodes the frame, appending a CRC-32C of the body — the
// "redundant information for error detection" the paper assigns to the
// system.
func (f *Frame) Marshal() ([]byte, error) {
	return f.AppendMarshal(make([]byte, 0, 64+len(f.Command)))
}

// AppendMarshal appends the frame's encoding, checksum included, to dst
// and returns the extended slice — Marshal into a buffer the caller
// reuses.
func (f *Frame) AppendMarshal(dst []byte) ([]byte, error) {
	start := len(dst)
	buf := binary.BigEndian.AppendUint32(dst, frameMagic)
	buf = append(buf, frameVersion)
	flags := byte(0)
	if !f.ReplyTo.IsZero() {
		flags |= flagHasReply
	}
	buf = append(buf, flags)
	buf = appendPort(buf, f.Dest)
	buf = binary.AppendUvarint(buf, uint64(len(f.SrcNode)))
	buf = append(buf, f.SrcNode...)
	buf = binary.AppendUvarint(buf, f.MsgID)
	buf = binary.AppendUvarint(buf, f.SrcGuardian)
	buf = binary.AppendUvarint(buf, uint64(len(f.Command)))
	buf = append(buf, f.Command...)
	buf, err := appendSeq(buf, f.Args)
	if err != nil {
		return nil, err
	}
	if flags&flagHasReply != 0 {
		buf = appendPort(buf, f.ReplyTo)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable)), nil
}

// UnmarshalFrame verifies the checksum and decodes a frame. A checksum
// mismatch returns ErrBadChecksum; the runtime discards such messages, so a
// corrupted message is never forwarded to its target port.
func UnmarshalFrame(buf []byte) (*Frame, error) {
	f := &Frame{}
	if err := f.Unmarshal(buf); err != nil {
		return nil, err
	}
	return f, nil
}

// Unmarshal is UnmarshalFrame into f, for a caller that keeps the frame
// off the heap. The decoded frame shares no memory with buf. On error f
// holds whatever had been decoded.
func (f *Frame) Unmarshal(buf []byte) error {
	if len(buf) < 10 {
		return ErrFrameShort
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return ErrBadChecksum
	}
	r := reader{buf: body}
	magic, err := r.take(4)
	if err != nil {
		return err
	}
	if binary.BigEndian.Uint32(magic) != frameMagic {
		return ErrBadMagic
	}
	ver, err := r.byte()
	if err != nil {
		return err
	}
	if ver != frameVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	if f.Dest, err = r.framePort("dest"); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	src, err := r.take(n)
	if err != nil {
		return err
	}
	f.SrcNode = string(src)
	if f.MsgID, err = r.uvarint(); err != nil {
		return err
	}
	if f.SrcGuardian, err = r.uvarint(); err != nil {
		return err
	}
	cn, err := r.uvarint()
	if err != nil {
		return err
	}
	cmd, err := r.take(cn)
	if err != nil {
		return err
	}
	f.Command = string(cmd)
	if f.Args, err = r.frameArgs(); err != nil {
		return err
	}
	f.ReplyTo = xrep.PortName{}
	if flags&flagHasReply != 0 {
		if f.ReplyTo, err = r.framePort("replyto"); err != nil {
			return err
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame", r.remaining())
	}
	return nil
}

// framePort decodes a frame field that must be a port name, without
// boxing it in an xrep.Value.
func (r *reader) framePort(field string) (xrep.PortName, error) {
	if r.peekTag() != tagPort {
		return xrep.PortName{}, r.wrongKind(field, "a port name")
	}
	r.off++
	p, err := r.port()
	if err != nil {
		return p, fmt.Errorf("wire: frame %s: %w", field, err)
	}
	return p, nil
}

// frameArgs decodes the frame's argument sequence, without boxing it in
// an xrep.Value.
func (r *reader) frameArgs() (xrep.Seq, error) {
	if r.peekTag() != tagSeq {
		return nil, r.wrongKind("args", "a sequence")
	}
	r.off++
	seq, err := r.seq(0)
	if err != nil {
		return nil, fmt.Errorf("wire: frame args: %w", err)
	}
	return seq, nil
}

// wrongKind reports a frame field holding a value of the wrong kind, or
// the error that stopped it from decoding at all.
func (r *reader) wrongKind(field, want string) error {
	if _, err := r.value(0); err != nil {
		return fmt.Errorf("wire: frame %s: %w", field, err)
	}
	return fmt.Errorf("wire: frame %s is not %s", field, want)
}
