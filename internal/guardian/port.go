package guardian

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/vtime"
	"repro/internal/xrep"
)

// Port is a one-directional gateway into a guardian (§3.2). Ports are the
// only entities with global names; messages are queued in bounded buffer
// space, and only processes within the owning guardian can receive from a
// port.
type Port struct {
	name     xrep.PortName
	ptype    *PortType
	guardian *Guardian
	capacity int

	mu      sync.Mutex
	queue   []*Message
	waiters []*waiter
	closed  bool

	// accounting
	enqueued  atomic.Int64
	discarded atomic.Int64
}

// waiter is one blocked Receive, Pause or Await. The first source to
// claim it — a port delivering, the timeout, the guardian's death, a
// Signal — ends the wait by sending on ch: the message, or one of the
// sentinels below.
type waiter struct {
	ch      chan *Message
	claimed atomic.Bool
	// vc is the world's simulated clock, nil on the wall clock. On a Sim
	// the claimer counts the waiting process runnable again.
	vc    *vtime.Sim
	timer vtime.Timer // a reused wall-clock wait's timeout, re-armed
}

// Sentinels a waiter receives when its wait ends without a message.
var (
	endTimeout  = &Message{}
	endKilled   = &Message{}
	endSignaled = &Message{}
)

// end claims w and, if that succeeded, ends its wait with m.
func (w *waiter) end(m *Message) bool {
	if !w.claimed.CompareAndSwap(false, true) {
		return false
	}
	w.wake(m)
	return true
}

// wake hands m to a waiter its caller has claimed.
func (w *waiter) wake(m *Message) {
	if w.vc != nil {
		w.vc.Unpark()
	}
	w.ch <- m
}

// Wake implements vtime.Wakeable: the guardian's kill event ends a
// counted wait.
func (w *waiter) Wake() bool { return w.end(endKilled) }

// Name returns the port's global name, which may be sent in messages.
func (p *Port) Name() xrep.PortName { return p.name }

// Type returns the port's type descriptor.
func (p *Port) Type() *PortType { return p.ptype }

// Guardian returns the owning guardian.
func (p *Port) Guardian() *Guardian { return p.guardian }

// Len reports the number of queued messages.
func (p *Port) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Capacity returns the port's buffer space.
func (p *Port) Capacity() int { return p.capacity }

// Enqueued reports how many messages have been accepted by this port.
func (p *Port) Enqueued() int64 { return p.enqueued.Load() }

// Discarded reports how many messages were thrown away because the buffer
// was full.
func (p *Port) Discarded() int64 { return p.discarded.Load() }

// deliver hands a message to a blocked receiver or queues it. It reports
// false when the port's buffer space is exhausted (the message is then
// thrown away, and the runtime sends a failure reply if one was asked
// for).
func (p *Port) deliver(m *Message) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	// Hand to the oldest waiter that has not been claimed by another port
	// or by its timeout.
	for len(p.waiters) > 0 {
		w := p.waiters[0]
		p.waiters = slices.Delete(p.waiters, 0, 1) // in place: appends reuse the array
		if w.claimed.CompareAndSwap(false, true) {
			p.mu.Unlock()
			w.wake(m)
			p.enqueued.Add(1)
			return true
		}
	}
	if len(p.queue) >= p.capacity {
		p.mu.Unlock()
		p.discarded.Add(1)
		return false
	}
	p.queue = append(p.queue, m)
	p.mu.Unlock()
	p.enqueued.Add(1)
	return true
}

// claimQueued atomically claims w and pops the oldest queued message.
// It returns nil if the queue is empty or w was already claimed — in the
// latter case a deliver has handed (or is handing) a message to w.ch.
func (p *Port) claimQueued(w *waiter) *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil
	}
	if !w.claimed.CompareAndSwap(false, true) {
		return nil
	}
	m := p.queue[0]
	p.queue = slices.Delete(p.queue, 0, 1)
	return m
}

// tryDequeue pops the oldest queued message, if any.
func (p *Port) tryDequeue() *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil
	}
	m := p.queue[0]
	p.queue = slices.Delete(p.queue, 0, 1)
	return m
}

// addWaiter registers a blocked receiver.
func (p *Port) addWaiter(w *waiter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waiters = append(p.waiters, w)
}

// removeWaiter drops w from the wait list (after a timeout or a win on
// another port). Claimed waiters are also purged lazily by deliver.
func (p *Port) removeWaiter(w *waiter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.waiters {
		if x == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return
		}
	}
}

// close marks the port dead (guardian crash or self-destruct); queued
// messages are dropped — they were volatile state.
func (p *Port) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.queue = nil
	p.waiters = nil
}
