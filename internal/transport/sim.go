package transport

import (
	"errors"
	"fmt"

	"repro/internal/netsim"
)

// defaultSimMTU is where Sim cuts frames when the simulated link sets no
// MTU: 16 KiB, the packet size the simulator's fault models have always
// been drawn over.
const defaultSimMTU = 16 << 10

// Sim adapts the in-memory network simulator to the Transport interface.
// It adds only the packet layer: frames are cut to the link's MTU
// (defaultSimMTU when unset) and reassembled at the receiver, and every
// fault, delay and determinism property of internal/netsim applies to
// those packets unchanged, which is what keeps the DST harness
// reproducible on top of the transport seam. Packet ids count up from 1
// per Sim, so a seed replays the same ids.
type Sim struct {
	net *netsim.Network
	pk  *packetizer
}

// NewSim wraps an existing simulator network.
func NewSim(n *netsim.Network) *Sim {
	return &Sim{net: n, pk: newPacketizer(1, n.Clock().Now)}
}

// Network exposes the wrapped simulator for fault injection (partitions,
// per-link overrides) in tests and experiments.
func (s *Sim) Network() *netsim.Network { return s.net }

// Attach implements Transport.
func (s *Sim) Attach(a Addr, h Handler) error {
	s.net.Attach(netsim.Addr(a), func(from netsim.Addr, pkt []byte) {
		frame, err := s.pk.receive(Addr(from), pkt)
		if frame != nil && err == nil {
			h(Addr(from), frame)
		}
	})
	return nil
}

// Detach implements Transport.
func (s *Sim) Detach(a Addr) { s.net.Detach(netsim.Addr(a)) }

// Attached implements Transport.
func (s *Sim) Attached(a Addr) bool { return s.net.Attached(netsim.Addr(a)) }

// Send implements Transport: the frame is cut to the link's MTU and each
// packet submitted to the simulator, which draws its fate.
func (s *Sim) Send(from, to Addr, frame []byte) error {
	return s.sendWithID(from, to, s.pk.nextID(), frame)
}

// OnBadPacket implements BadPacketReporter.
func (s *Sim) OnBadPacket(f func(from Addr)) { s.pk.setOnBad(f) }

func (s *Sim) nextPacketID() uint64 { return s.pk.nextID() }

func (s *Sim) sendWithID(from, to Addr, id uint64, frame []byte) error {
	mtu := s.net.MTU(netsim.Addr(from), netsim.Addr(to))
	if mtu == 0 {
		mtu = defaultSimMTU
	}
	return s.pk.send(s, from, to, id, frame, mtu)
}

// sendPacket submits one packet, translating the simulator's local
// errors into the transport-level ones.
func (s *Sim) sendPacket(from, to Addr, pkt []byte) error {
	err := s.net.Send(netsim.Addr(from), netsim.Addr(to), pkt)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, netsim.ErrTooLarge):
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(pkt))
	case errors.Is(err, netsim.ErrUnknownSender):
		return fmt.Errorf("%w: %s", ErrNotAttached, from)
	case errors.Is(err, netsim.ErrEmptyPayload):
		return ErrEmptyPayload
	default:
		return err
	}
}

// Learn implements Transport. Simulator addresses already are logical
// names, so there is nothing to learn.
func (s *Sim) Learn(name, via Addr) {}

// Stats implements Transport.
func (s *Sim) Stats() Stats {
	st := s.net.Stats()
	return Stats{
		Sent:       st.Sent,
		Delivered:  st.Delivered,
		Dropped:    st.Lost + st.DroppedDst + st.Partition,
		Duplicated: st.Duplicated,
		BytesSent:  st.BytesSent,
	}
}

// Quiesce implements Transport: the simulator tracks in-flight packets
// exactly, so this really waits for silence.
func (s *Sim) Quiesce() { s.net.Quiesce() }

// Close implements Transport. The simulator holds no OS resources; closing
// is a no-op so worlds built on it stay usable by tests that never close.
func (s *Sim) Close() error { return nil }
