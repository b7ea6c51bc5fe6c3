package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/netsim"
)

// WrapperConfig is the fault model a Wrapper injects around an inner
// transport — the same knobs the simulator's fault profiles use, so a UDP
// path can be soak-tested with identical loss/duplication/delay rates.
type WrapperConfig struct {
	// Seed initializes the fate source; fates are a pure function of the
	// seed and the send order.
	Seed int64
	// LossRate is the probability in [0,1] that a datagram is silently
	// dropped before reaching the inner transport.
	LossRate float64
	// DupRate is the probability that a datagram is submitted twice. On
	// a packetizing transport (Sim, UDP) the copy carries the original's
	// packet id, so the receiver drops it as it drops the network's own
	// duplicates; on a stream the frame is delivered twice.
	DupRate float64
	// Delay is the minimum extra latency added to each datagram.
	Delay time.Duration
	// Jitter is the maximum additional uniformly-random delay.
	Jitter time.Duration

	// The stream fault model, honored only when the inner transport is a
	// StreamFaulter. Loss and duplication are datagram faults — a stream
	// would just repair them — so what a stream really suffers is
	// injected instead: the connection carrying a send is reset, or its
	// write pump stalls into a half-open hang.

	// ResetRate is the probability in [0,1] that a send's destination
	// connection is reset just after the send is submitted.
	ResetRate float64
	// StallRate is the probability that the destination connection's
	// writes freeze for StallFor after the send is submitted.
	StallRate float64
	// StallFor is the stall duration; zero means 100ms.
	StallFor time.Duration
}

// WrapperStats counts the faults a Wrapper has injected.
type WrapperStats struct {
	Sent       int64 // datagrams offered to the wrapper
	Lost       int64 // dropped by the injected loss model
	Duplicated int64 // extra submissions from the injected duplication model
	Delayed    int64 // datagrams given a nonzero injected delay
	Resets     int64 // connection resets injected by the stream fault model
	Stalls     int64 // write stalls injected by the stream fault model
}

// Wrapper injects faults around any Transport: loss, duplication and
// delay for datagram transports, connection resets and write stalls when
// the inner transport is a StreamFaulter. Faults apply to outbound sends
// only; wrap both ends to fault both directions. Everything else —
// attach, detach, learning, stats — passes through to the inner
// transport.
type Wrapper struct {
	inner Transport
	// faulter is the inner transport's stream fault surface, when it has
	// one; nil for datagram transports, for which the stream rates are
	// inert.
	faulter StreamFaulter
	// ids is the inner transport's packet-id surface when it packetizes.
	ids packetIDSender
	cfg WrapperConfig

	mu       sync.Mutex
	rng      *rand.Rand
	stats    WrapperStats
	inflight int
	idle     *sync.Cond
}

// Wrap composes the fault model around inner.
func Wrap(inner Transport, cfg WrapperConfig) *Wrapper {
	w := &Wrapper{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if f, ok := inner.(StreamFaulter); ok {
		w.faulter = f
	}
	w.ids, _ = inner.(packetIDSender)
	w.idle = sync.NewCond(&w.mu)
	return w
}

// Inner returns the wrapped transport.
func (w *Wrapper) Inner() Transport { return w.inner }

// Network unwraps to the simulator when the inner transport is (or wraps)
// one, so guardian worlds built on a wrapped simulator keep their fault
// injection hooks.
func (w *Wrapper) Network() *netsim.Network {
	if src, ok := w.inner.(interface{ Network() *netsim.Network }); ok {
		return src.Network()
	}
	return nil
}

// Attach implements Transport.
func (w *Wrapper) Attach(a Addr, h Handler) error { return w.inner.Attach(a, h) }

// Detach implements Transport.
func (w *Wrapper) Detach(a Addr) { w.inner.Detach(a) }

// Attached implements Transport.
func (w *Wrapper) Attached(a Addr) bool { return w.inner.Attached(a) }

// Learn implements Transport.
func (w *Wrapper) Learn(name, via Addr) { w.inner.Learn(name, via) }

// Send implements Transport: the datagram's fate — lost, once, twice, and
// how late — is decided now, under the lock, so the fault sequence is a
// pure function of the seed and the send order. Delayed copies are
// submitted from background goroutines; Quiesce waits for them.
func (w *Wrapper) Send(from, to Addr, payload []byte) error {
	w.mu.Lock()
	w.stats.Sent++
	if w.rng.Float64() < w.cfg.LossRate {
		w.stats.Lost++
		w.mu.Unlock()
		return nil
	}
	copies := 1
	if w.rng.Float64() < w.cfg.DupRate {
		w.stats.Duplicated++
		copies = 2
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		d := w.cfg.Delay
		if w.cfg.Jitter > 0 {
			d += time.Duration(w.rng.Int63n(int64(w.cfg.Jitter) + 1))
		}
		if d > 0 {
			w.stats.Delayed++
		}
		delays[i] = d
	}
	// Stream fates are drawn here too — under the lock, in send order —
	// so they stay a pure function of the seed; the injection itself
	// (which blocks on the inner transport's machinery) happens after
	// the send is submitted, below.
	var reset, stall bool
	if w.faulter != nil {
		reset = w.rng.Float64() < w.cfg.ResetRate
		stall = w.rng.Float64() < w.cfg.StallRate
	}
	w.inflight += copies
	w.mu.Unlock()

	var id uint64
	if w.ids != nil {
		id = w.ids.nextPacketID()
	}
	var firstErr error
	for _, d := range delays {
		if d == 0 {
			if err := w.submit(id, from, to, payload); err != nil && firstErr == nil {
				firstErr = err
			}
			w.retire()
			continue
		}
		buf := make([]byte, len(payload))
		copy(buf, payload)
		go func(d time.Duration) {
			defer w.retire()
			time.Sleep(d)
			_ = w.submit(id, from, to, buf)
		}(d)
	}
	if stall || reset {
		w.injectStream(to, reset, stall)
	}
	return firstErr
}

// packetIDSender is implemented by the packetizing transports: every copy
// of one Send goes out under one packet id.
type packetIDSender interface {
	nextPacketID() uint64
	sendWithID(from, to Addr, id uint64, frame []byte) error
}

// submit hands one copy of a frame to the inner transport, under id when
// it packetizes.
func (w *Wrapper) submit(id uint64, from, to Addr, frame []byte) error {
	if w.ids != nil {
		return w.ids.sendWithID(from, to, id, frame)
	}
	return w.inner.Send(from, to, frame)
}

// OnBadPacket implements BadPacketReporter when the inner transport does.
func (w *Wrapper) OnBadPacket(f func(from Addr)) {
	if r, ok := w.inner.(BadPacketReporter); ok {
		r.OnBadPacket(f)
	}
}

// injectStream applies a drawn stream fate to the connection now carrying
// traffic to to. A stall lands first — a reset would leave it nothing to
// freeze. Only faults that found a live connection are counted: fates are
// deterministic, hits depend on what the state machine had up.
func (w *Wrapper) injectStream(to Addr, reset, stall bool) {
	if stall {
		d := w.cfg.StallFor
		if d == 0 {
			d = 100 * time.Millisecond
		}
		if w.faulter.StallPeer(to, d) {
			w.mu.Lock()
			w.stats.Stalls++
			w.mu.Unlock()
		}
	}
	if reset {
		if w.faulter.ResetPeer(to) {
			w.mu.Lock()
			w.stats.Resets++
			w.mu.Unlock()
		}
	}
}

// retire finishes one submitted copy, waking Quiesce at zero.
func (w *Wrapper) retire() {
	w.mu.Lock()
	w.inflight--
	if w.inflight == 0 {
		w.idle.Broadcast()
	}
	w.mu.Unlock()
}

// InjectedStats reports the faults injected so far.
func (w *Wrapper) InjectedStats() WrapperStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Stats implements Transport, reporting the inner transport's accounting.
func (w *Wrapper) Stats() Stats { return w.inner.Stats() }

// Quiesce implements Transport: it waits for the wrapper's own delayed
// copies to be submitted, then for the inner transport.
func (w *Wrapper) Quiesce() {
	w.mu.Lock()
	for w.inflight > 0 {
		w.idle.Wait()
	}
	w.mu.Unlock()
	w.inner.Quiesce()
}

// Close implements Transport.
func (w *Wrapper) Close() error { return w.inner.Close() }
