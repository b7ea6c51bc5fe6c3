package csync

import (
	"sync"

	"repro/internal/vtime"
)

// KeyLock is the monitor of Figure 1c made concrete: the paper's forked
// processes "synchronize using shared data, e.g., a monitor providing
// operations start_request(date) and end_request(date)". A KeyLock grants
// exclusive possession per key; requests for distinct keys proceed in
// parallel while requests for the same key serialize in FIFO order.
type KeyLock[K comparable] struct {
	mu    sync.Mutex
	state map[K]*keyState
	// clock counts a blocked StartRequest as parked, so a simulated
	// clock sees the hand-off in EndRequest as the wake-up it is.
	clock vtime.Clock
}

type keyState struct {
	held    bool
	waiters []chan struct{} // FIFO of blocked StartRequest calls
}

// NewKeyLock returns an empty per-key monitor.
func NewKeyLock[K comparable]() *KeyLock[K] { return NewKeyLockOn[K](vtime.Real{}) }

// NewKeyLockOn returns an empty per-key monitor whose waits are counted on
// clock, for processes that run on a simulated one.
func NewKeyLockOn[K comparable](clock vtime.Clock) *KeyLock[K] {
	return &KeyLock[K]{state: make(map[K]*keyState), clock: clock}
}

// StartRequest blocks until the caller holds exclusive possession of key.
// Possession is granted in request order.
func (l *KeyLock[K]) StartRequest(key K) {
	l.mu.Lock()
	st, ok := l.state[key]
	if !ok {
		st = &keyState{}
		l.state[key] = st
	}
	if !st.held && len(st.waiters) == 0 {
		st.held = true
		l.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	st.waiters = append(st.waiters, ch)
	l.mu.Unlock()
	l.clock.Park()
	<-ch
}

// TryStartRequest acquires key without blocking; it reports whether
// possession was granted.
func (l *KeyLock[K]) TryStartRequest(key K) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.state[key]
	if !ok {
		st = &keyState{}
		l.state[key] = st
	}
	if st.held || len(st.waiters) > 0 {
		return false
	}
	st.held = true
	return true
}

// EndRequest releases possession of key, handing it to the oldest waiter
// if any. Releasing an unheld key panics: that is always a program bug.
func (l *KeyLock[K]) EndRequest(key K) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.state[key]
	if !ok || !st.held {
		panic("csync: EndRequest of key not held")
	}
	if len(st.waiters) == 0 {
		delete(l.state, key) // keep the map from growing with dead keys
		return
	}
	next := st.waiters[0]
	st.waiters = st.waiters[1:]
	l.clock.Unpark()
	close(next) // possession transfers directly; held stays true
}

// Waiters reports how many processes are blocked on key.
func (l *KeyLock[K]) Waiters(key K) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.state[key]; ok {
		return len(st.waiters)
	}
	return 0
}

// HeldKeys reports how many keys are currently possessed.
func (l *KeyLock[K]) HeldKeys() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, st := range l.state {
		if st.held {
			n++
		}
	}
	return n
}
