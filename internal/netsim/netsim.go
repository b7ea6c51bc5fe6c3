// Package netsim simulates the communications network assumed by the paper:
// a set of autonomous nodes connected pairwise, communicating only by
// datagrams, with no shared memory and no delivery guarantees.
//
// The simulator delivers best-effort: packets may be delayed, lost,
// duplicated, corrupted, or reordered, according to per-network defaults
// that can be overridden per directed link. Nodes attach a handler to
// receive; detaching a node (a crash) silently discards traffic addressed
// to it, exactly as a dead node would.
//
// All randomness flows from a single seeded source so fault schedules are
// reproducible; all fate decisions (loss, duplication, corruption, delay)
// are drawn at Send time, after which delivery goroutines — started with
// the clock's Go, so a simulated clock counts them — only sleep on the
// supplied clock and invoke the destination handler.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/vtime"
)

// Addr names a node on the network. Addresses are opaque strings; the
// network makes no attempt to interpret them.
type Addr string

// Handler receives a datagram. Handlers are invoked on delivery goroutines
// and must return promptly; a blocking handler delays only its own packet.
type Handler func(from Addr, payload []byte)

// Errors returned by Send.
var (
	ErrTooLarge      = errors.New("netsim: datagram exceeds MTU")
	ErrUnknownSender = errors.New("netsim: sender not attached")
	ErrEmptyPayload  = errors.New("netsim: empty payload")
)

// Config holds the fault and delay model for the network or for one
// directed link.
type Config struct {
	// Seed initializes the random source. Used only in the network-wide
	// default config passed to New; ignored in per-link overrides.
	Seed int64
	// BaseLatency is the minimum one-way delivery delay.
	BaseLatency time.Duration
	// Jitter is the maximum additional uniformly-random delay.
	Jitter time.Duration
	// LossRate is the probability in [0,1] that a packet is silently lost.
	LossRate float64
	// DupRate is the probability that a packet is delivered twice.
	DupRate float64
	// CorruptRate is the probability that a delivered packet has one bit
	// flipped. Corruption is applied to a copy; senders' buffers are never
	// mutated.
	CorruptRate float64
	// ReorderRate is the probability that a packet is held for an extra
	// ReorderDelay, letting later packets overtake it.
	ReorderRate float64
	// ReorderDelay is the extra hold applied to reordered packets. Zero
	// means one BaseLatency.
	ReorderDelay time.Duration
	// BandwidthBps, when positive, adds a serialization delay of
	// len(payload)/BandwidthBps seconds per packet.
	BandwidthBps int64
	// MTU, when positive, bounds the datagram size; larger sends fail with
	// ErrTooLarge. Cutting frames to fit is the transport's job.
	MTU int
}

// Stats aggregates network-wide packet accounting. All counts are since the
// network was created.
type Stats struct {
	Sent       int64 // datagrams accepted by Send
	Delivered  int64 // handler invocations (includes duplicates)
	Lost       int64 // dropped by the loss model
	DroppedDst int64 // dropped because the destination was not attached
	Duplicated int64 // extra deliveries from the duplication model
	Corrupted  int64 // deliveries with a flipped bit
	Reordered  int64 // deliveries given the extra reorder hold
	Partition  int64 // dropped by an active partition or disconnect
	BytesSent  int64
}

// Network is the simulated communications medium.
type Network struct {
	clock vtime.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	defaults Config
	nodes    map[Addr]Handler
	links    map[linkKey]*Config  // per directed link overrides
	cut      map[linkKey]struct{} // severed directed links
	group    map[Addr]int         // partition group; absent = group 0
	parted   bool
	stats    Stats
	inflight int        // packets accepted but not yet delivered or dropped
	idle     *sync.Cond // broadcast when inflight returns to zero
	// quiescers counts Quiesce callers parked on idle; the delivery that
	// empties the network unparks them on the clock.
	quiescers int
	closed    bool
}

type linkKey struct{ from, to Addr }

// New creates a network with the given defaults. A zero Config gives
// instant, perfectly reliable delivery. All fate decisions are drawn from
// a private source seeded with cfg.Seed, so a network built the same way
// and sent the same packet sequence makes the same decisions.
func New(clock vtime.Clock, cfg Config) *Network {
	return NewWithRand(clock, cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// NewWithRand is New with an injectable random source, for harnesses (such
// as internal/dst) that derive every decision in a run — network fate,
// fault schedule, workload — from one master seed. The network serializes
// access to rng under its own lock; the caller must not draw from it after
// handing it over.
func NewWithRand(clock vtime.Clock, cfg Config, rng *rand.Rand) *Network {
	n := &Network{
		clock:    clock,
		rng:      rng,
		defaults: cfg,
		nodes:    make(map[Addr]Handler),
		links:    make(map[linkKey]*Config),
		cut:      make(map[linkKey]struct{}),
		group:    make(map[Addr]int),
	}
	n.idle = sync.NewCond(&n.mu)
	return n
}

// Clock returns the clock the network delays deliveries on.
func (n *Network) Clock() vtime.Clock { return n.clock }

// MTU returns the datagram bound of the directed link from→to — its
// override's if it has one, else the network default. Zero means
// unbounded.
func (n *Network) MTU(from, to Addr) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ov, ok := n.links[linkKey{from, to}]; ok {
		return ov.MTU
	}
	return n.defaults.MTU
}

// Attach registers a handler to receive datagrams addressed to a. Attaching
// an address that is already attached replaces its handler.
func (n *Network) Attach(a Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[a] = h
}

// Detach removes a from the network. In-flight packets addressed to a are
// discarded at delivery time. Used to model node crashes.
func (n *Network) Detach(a Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, a)
}

// Attached reports whether a currently has a handler.
func (n *Network) Attached(a Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.nodes[a]
	return ok
}

// SetLink overrides the fault/delay model for the directed link from→to.
// Passing nil removes the override, restoring network defaults.
func (n *Network) SetLink(from, to Addr, cfg *Config) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{from, to}
	if cfg == nil {
		delete(n.links, k)
		return
	}
	c := *cfg
	n.links[k] = &c
}

// Disconnect severs both directions between a and b until Reconnect.
func (n *Network) Disconnect(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[linkKey{a, b}] = struct{}{}
	n.cut[linkKey{b, a}] = struct{}{}
}

// Reconnect restores the links severed by Disconnect.
func (n *Network) Reconnect(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, linkKey{a, b})
	delete(n.cut, linkKey{b, a})
}

// Partition splits the network into groups; traffic crosses group
// boundaries only after Heal. Addresses not listed fall in group 0 along
// with the first group.
func (n *Network) Partition(groups ...[]Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[Addr]int)
	for i, g := range groups {
		for _, a := range g {
			n.group[a] = i
		}
	}
	n.parted = true
}

// Heal removes any active partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parted = false
	n.group = make(map[Addr]int)
}

// Stats returns a snapshot of the packet accounting.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Quiesce blocks until no packet is in flight. Deliveries may themselves
// trigger new sends (a handler replying), so this is a counter + condition
// variable rather than a WaitGroup: a send racing the wait simply extends
// it, instead of tripping the WaitGroup reuse panic.
//
// A caller on a simulated clock counts as parked while it waits.
func (n *Network) Quiesce() {
	n.mu.Lock()
	for n.inflight > 0 {
		n.quiescers++
		n.clock.Park()
		n.idle.Wait()
	}
	n.mu.Unlock()
}

// Send submits a datagram for best-effort delivery from from to to. It
// returns immediately once the packet's fate is decided; the payload is
// copied, so the caller may reuse the buffer.
func (n *Network) Send(from, to Addr, payload []byte) error {
	if len(payload) == 0 {
		return ErrEmptyPayload
	}
	n.mu.Lock()
	if _, ok := n.nodes[from]; !ok {
		n.mu.Unlock()
		return ErrUnknownSender
	}
	cfg := n.defaults
	if ov, ok := n.links[linkKey{from, to}]; ok {
		ov2 := *ov
		ov2.Seed = cfg.Seed
		cfg = ov2
	}
	if cfg.MTU > 0 && len(payload) > cfg.MTU {
		n.mu.Unlock()
		return fmt.Errorf("%w: %d > MTU %d", ErrTooLarge, len(payload), cfg.MTU)
	}
	n.stats.Sent++
	n.stats.BytesSent += int64(len(payload))

	// Partition / disconnect drop the packet after accounting the send —
	// the sender cannot tell, exactly as on a real network.
	if _, severed := n.cut[linkKey{from, to}]; severed || (n.parted && n.group[from] != n.group[to]) {
		n.stats.Partition++
		n.mu.Unlock()
		return nil
	}

	// Decide the packet's fate now, under the lock, so the random sequence
	// is a pure function of the seed and the send order.
	type delivery struct {
		delay   time.Duration
		corrupt bool
		reorder bool
	}
	plan := make([]delivery, 0, 2)
	if n.rng.Float64() < cfg.LossRate {
		n.stats.Lost++
	} else {
		plan = append(plan, delivery{})
		if n.rng.Float64() < cfg.DupRate {
			n.stats.Duplicated++
			plan = append(plan, delivery{})
		}
	}
	for i := range plan {
		d := cfg.BaseLatency
		if cfg.Jitter > 0 {
			d += time.Duration(n.rng.Int63n(int64(cfg.Jitter) + 1))
		}
		if cfg.BandwidthBps > 0 {
			d += time.Duration(float64(len(payload)) / float64(cfg.BandwidthBps) * float64(time.Second))
		}
		if n.rng.Float64() < cfg.ReorderRate {
			extra := cfg.ReorderDelay
			if extra == 0 {
				extra = cfg.BaseLatency
			}
			d += extra
			plan[i].reorder = true
			n.stats.Reordered++
		}
		if n.rng.Float64() < cfg.CorruptRate {
			plan[i].corrupt = true
			n.stats.Corrupted++
		}
		plan[i].delay = d
	}
	corruptBit := 0
	for _, p := range plan {
		if p.corrupt {
			corruptBit = n.rng.Intn(len(payload) * 8)
		}
	}
	n.inflight += len(plan)
	n.mu.Unlock()

	for _, p := range plan {
		buf := make([]byte, len(payload))
		copy(buf, payload)
		if p.corrupt {
			buf[corruptBit/8] ^= 1 << (corruptBit % 8)
		}
		n.clock.Go(func() { n.deliver(from, to, buf, p.delay) })
	}
	return nil
}

// delivered retires one in-flight packet, waking Quiesce at zero.
func (n *Network) delivered() {
	n.mu.Lock()
	n.inflight--
	if n.inflight == 0 {
		for ; n.quiescers > 0; n.quiescers-- {
			n.clock.Unpark()
		}
		n.idle.Broadcast()
	}
	n.mu.Unlock()
}

func (n *Network) deliver(from, to Addr, payload []byte, delay time.Duration) {
	defer n.delivered()
	if delay > 0 {
		n.clock.Sleep(delay)
	}
	n.mu.Lock()
	h, ok := n.nodes[to]
	if !ok {
		n.stats.DroppedDst++
		n.mu.Unlock()
		return
	}
	n.stats.Delivered++
	n.mu.Unlock()
	h(from, payload)
}
