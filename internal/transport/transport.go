// Package transport is the seam between the guardian runtime and whatever
// carries its messages. The paper assumes only "an underlying network
// which provides for the transmission of messages" with no delivery
// guarantee. This package pins that line down as an interface that
// carries whole frames — one marshalled message per Send, one per
// handler call — so the runtime above never learns whether the network
// below moves datagrams or streams. It has three implementations:
//
//   - Sim wraps internal/netsim, the deterministic in-memory simulator
//     every test and the DST harness run on;
//   - UDP carries frames over real net.UDPConn sockets, so guardians can
//     run as separate OS processes; and
//   - TCP carries each frame as one length-prefixed data frame over
//     persistent connections with an explicit per-peer state machine
//     (select handshake, linktest heartbeat, reconnect), removing the
//     datagram size ceiling and trading per-datagram loss for
//     WAN-realistic ordered-until-reset semantics.
//
// The datagram transports (Sim, UDP) packetize: a frame larger than the
// path MTU is "broken into packets" (§3.4) in the wire package's packet
// format, each packet carries a CRC, and the receiver hands a frame up
// only "when the message is entirely and correctly received", dropping
// corrupt packets, partial frames that age out, and repeats of frames it
// already delivered. A stream has none of that to do: TCP neither cuts
// nor reassembles.
//
// A Wrapper composes fault injection around any Transport — loss,
// duplication and delay of frames, connection resets and stalls for
// stream ones — letting the real network paths be soak-tested with the
// same fault profiles the simulator uses.
package transport

import (
	"errors"
	"time"
)

// Addr names a node on the network. Addresses are opaque strings: logical
// node names for attached peers, transport-specific observed addresses
// (e.g. "127.0.0.1:9001") for senders not yet known by name.
type Addr string

// Handler receives one whole frame. Handlers are invoked on the
// transport's delivery or receive-loop goroutines and must return
// promptly; a blocking handler stalls only the goroutine that called it.
// The frame is valid only until the handler returns: a handler that keeps
// it must copy it.
type Handler func(from Addr, frame []byte)

// Transport carries best-effort frames between named nodes. Frames may
// be lost, duplicated or reordered; nothing above this interface may
// assume otherwise.
type Transport interface {
	// Attach registers a handler to receive frames addressed to a,
	// binding whatever underlying resource (simulator slot, socket) the
	// address needs. Attaching an already-attached address replaces its
	// handler.
	Attach(a Addr, h Handler) error
	// Detach removes a from the network: its resources are released and
	// traffic addressed to it is silently discarded, exactly as for a
	// dead node. Used to model (or implement) node crashes.
	Detach(a Addr)
	// Attached reports whether a currently has a handler.
	Attached(a Addr) bool
	// Send submits one frame from the attached address from to to. It
	// returns once the frame's local fate is decided; delivery is
	// best-effort and errors beyond local ones (a frame too large for
	// the transport, an unattached sender) are never reported. Send does
	// not keep frame after it returns.
	Send(from, to Addr, frame []byte) error
	// Learn tells the transport that the node named name was observed
	// sending from the transport-level address via, so later Sends to
	// name can be routed without static configuration. Transports whose
	// addresses are already logical names ignore it.
	Learn(name, via Addr)
	// Stats returns a snapshot of the packet accounting.
	Stats() Stats
	// Quiesce blocks until no packet is in flight, where the transport
	// can know that (the simulator can; a real network cannot, and
	// returns immediately).
	Quiesce()
	// Close shuts the transport down: all addresses detach, receive
	// loops drain, and further Sends fail with ErrClosed.
	Close() error
}

// Stats aggregates transport-wide accounting of the units the network
// carries: packets for the datagram transports, data frames for TCP. All
// counts are since the transport was created.
type Stats struct {
	Sent       int64 // units put on the network
	Delivered  int64 // units received (includes duplicates)
	Dropped    int64 // known-dropped: loss model, dead destination, failed write
	Duplicated int64 // extra deliveries from a duplication model
	BytesSent  int64
	BytesRecv  int64
	RecvErrors int64 // units discarded by the receive path

	// Conns is per-peer connection accounting, keyed by the peer's
	// advertised address. Only stream transports populate it; datagram
	// transports have no connections to account for and leave it nil.
	Conns map[Addr]ConnStats
}

// BadPacketReporter is implemented by the datagram transports, which
// verify every packet's checksum below the frame. OnBadPacket registers
// f to be told of each packet they discard as corrupt or inconsistent,
// so the layer above can account for messages thrown away because "the
// bits of the message are in error" (§3.4).
type BadPacketReporter interface {
	OnBadPacket(f func(from Addr))
}

// StreamFaulter is the fault-injection surface of stream transports.
// Datagram fault models (loss, duplication) are meaningless on a stream —
// TCP would just repair them — so the Wrapper injects the failures
// streams really have: connection resets and half-open stalls.
type StreamFaulter interface {
	// ResetPeer abruptly kills the live connection to the peer that a
	// routes to, reporting whether there was one to kill.
	ResetPeer(a Addr) bool
	// StallPeer freezes outbound writes to a's peer for d — a half-open
	// hang only heartbeat misses ever reveal. Reports whether a live
	// connection was there to stall.
	StallPeer(a Addr, d time.Duration) bool
}

// Errors reported by transports. Only local problems are ever reported;
// anything that happens after a datagram leaves is silence, as the paper
// requires.
var (
	ErrClosed       = errors.New("transport: closed")
	ErrTooLarge     = errors.New("transport: frame too large")
	ErrNotAttached  = errors.New("transport: sender not attached")
	ErrUnknownPeer  = errors.New("transport: no address known for peer")
	ErrEmptyPayload = errors.New("transport: empty payload")
)
