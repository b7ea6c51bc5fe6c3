package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// reassemblyAge bounds how long a datagram transport holds a partial
// frame, and how long it remembers a completed one so that repeats of
// its packets are dropped rather than delivered again.
const reassemblyAge = 30 * time.Second

// packetizer is the framing the datagram transports (Sim, UDP) share —
// §3.4's "broken into packets if necessary" and "forwarded ... when the
// message is entirely and correctly received". Outbound, a frame is cut
// into wire packets no larger than the path MTU, all under one packet
// id; inbound, packets are checked, reassembled per sender, and a frame
// goes up only once whole, with repeats of a completed id dropped.
type packetizer struct {
	ids   atomic.Uint64
	reasm *wire.Reassembler
	now   func() time.Time
	onBad atomic.Pointer[func(from Addr)]

	sweepMu   sync.Mutex
	lastSweep time.Time
}

func newPacketizer(firstID uint64, now func() time.Time) *packetizer {
	p := &packetizer{reasm: wire.NewReassembler(), now: now}
	p.ids.Store(firstID - 1)
	return p
}

// nextID returns a fresh packet id.
func (p *packetizer) nextID() uint64 { return p.ids.Add(1) }

// packetSink puts one packet on a datagram transport's network.
type packetSink interface {
	sendPacket(from, to Addr, pkt []byte) error
}

// packetBufs recycles packet buffers: every sink copies a packet before
// Send returns (into the simulator, into the kernel), so one buffer
// serves a whole frame and then the next Send.
var packetBufs = sync.Pool{New: func() any { return new([]byte) }}

// send cuts frame into packets of at most mtu bytes under id and puts
// each on sink, stopping at the first local error.
func (p *packetizer) send(sink packetSink, from, to Addr, id uint64, frame []byte, mtu int) error {
	if len(frame) == 0 {
		return ErrEmptyPayload
	}
	count, chunk, err := wire.PacketCount(len(frame), mtu)
	if err != nil {
		return err
	}
	buf := packetBufs.Get().(*[]byte)
	defer packetBufs.Put(buf)
	for i := 0; i < count; i++ {
		payload := frame[i*chunk : min((i+1)*chunk, len(frame))]
		*buf = wire.AppendPacket((*buf)[:0], id, i, count, payload)
		if err := sink.sendPacket(from, to, *buf); err != nil {
			return err
		}
	}
	return nil
}

// receive takes one packet from sender and returns the frame it
// completes, or nil while packets are missing or when it repeats a
// completed frame. A corrupt or inconsistent packet is an error. The
// frame may alias pkt.
func (p *packetizer) receive(sender Addr, pkt []byte) ([]byte, error) {
	now := p.now()
	p.sweepMu.Lock()
	if now.Sub(p.lastSweep) > reassemblyAge {
		p.lastSweep = now
		p.reasm.Sweep(now, reassemblyAge)
	}
	p.sweepMu.Unlock()
	frame, err := p.reasm.Add(string(sender), pkt, now)
	if err != nil {
		if f := p.onBad.Load(); f != nil {
			(*f)(sender)
		}
	}
	return frame, err
}

// setOnBad installs the BadPacketReporter callback.
func (p *packetizer) setOnBad(f func(from Addr)) { p.onBad.Store(&f) }
