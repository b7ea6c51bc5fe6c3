package vtime

import (
	"sync"
	"sync/atomic"
)

// Wakeable is a parked wait that an Event can end. Wake reports whether
// this call ended it; a wait ends exactly once, however many sources race.
type Wakeable interface {
	Wake() bool
}

// Waiter is one blocked wait that several sources may race to end — a
// completion, a fence, a timeout. The first Wake wins and counts the
// waiting goroutine runnable again; later Wakes do nothing. So every
// park is matched by exactly one wake, which is what lets a Sim tell a
// waiting simulation from a running one.
type Waiter struct {
	clock   Clock
	claimed atomic.Bool
	ch      chan struct{}
}

// NewWaiter returns a wait on clock c.
func NewWaiter(c Clock) *Waiter {
	return &Waiter{clock: c, ch: make(chan struct{})}
}

// Wake ends the wait unless another source already has, and reports
// whether this call did.
func (w *Waiter) Wake() bool {
	if !w.claimed.CompareAndSwap(false, true) {
		return false
	}
	w.clock.Unpark()
	close(w.ch)
	return true
}

// Wait blocks the calling goroutine, parked on the clock, until Wake.
// It returns at once if Wake came first.
func (w *Waiter) Wait() {
	w.clock.Park()
	<-w.ch
}

// Event is a one-shot broadcast, the counted form of closing a channel:
// Fire wakes every subscribed wait, and subscribing to a fired Event
// wakes the subscriber at once. The zero value is an unfired Event.
type Event struct {
	mu    sync.Mutex
	fired bool
	subs  []Wakeable
}

// Subscribe has Fire wake w; if the Event has fired, w is woken now.
func (e *Event) Subscribe(w Wakeable) {
	e.mu.Lock()
	if e.fired {
		e.mu.Unlock()
		w.Wake()
		return
	}
	e.subs = append(e.subs, w)
	e.mu.Unlock()
}

// Unsubscribe drops w, once its wait has ended some other way.
func (e *Event) Unsubscribe(w Wakeable) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.subs {
		if x == w {
			e.subs = append(e.subs[:i], e.subs[i+1:]...)
			return
		}
	}
}

// Fire wakes every subscriber, in subscription order. Later calls do
// nothing.
func (e *Event) Fire() {
	e.mu.Lock()
	if e.fired {
		e.mu.Unlock()
		return
	}
	e.fired = true
	subs := e.subs
	e.subs = nil
	e.mu.Unlock()
	for _, w := range subs {
		w.Wake()
	}
}

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired
}
