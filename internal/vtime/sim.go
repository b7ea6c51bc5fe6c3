package vtime

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Sim is a deterministic simulated clock. Time stands still until a test
// calls Advance, AdvanceTo or Drive, at which point every timer whose
// deadline has been reached fires, in deadline order (ties broken by
// creation order).
//
// Goroutines that Sleep on a Sim clock block until an Advance moves time
// past their wakeup point.
//
// A Sim counts the runnable simulated goroutines: Go adds one, and a
// goroutine leaves the count while parked (Sleep, After, Park) and when
// it returns. Drive reads the count to tell when the simulation is
// quiescent.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64 // tie-break for identical deadlines; also timers created
	pending timerHeap

	// runnable counts simulated goroutines that can run; activity is
	// bumped by every spawn, exit, park and wake, the pulse the hang
	// guard watches. quiet is signalled when runnable drops to zero.
	runnable atomic.Int64
	activity atomic.Uint64
	quiet    chan struct{}
	// stallLimit bounds how long Drive waits without any activity before
	// it reports a hang. Zero means defaultStallLimit.
	stallLimit time.Duration
}

// NewSim returns a simulated clock whose current time is start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start, quiet: make(chan struct{}, 1)}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration {
	return s.Now().Sub(t)
}

// After implements Clock. The caller counts as parked from this call
// until the channel fires.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	t := s.newTimerLocked(d, nil)
	if !t.fired {
		t.parked = true
		s.Park()
	}
	s.mu.Unlock()
	return t.ch
}

// Sleep implements Clock. It blocks until the simulated time has advanced
// by at least d, counting the caller parked meanwhile.
func (s *Sim) Sleep(d time.Duration) {
	<-s.After(d)
}

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newTimerLocked(d, nil)
}

// AfterFunc calls f once the clock reaches now+d, on the goroutine that
// advances it there; a non-positive d fires at the next advance. f must
// not block.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newTimerLocked(d, f)
}

// newTimerLocked creates a timer. A channel timer with a non-positive d
// fires at once; every other timer joins the heap. Called with s.mu held.
func (s *Sim) newTimerLocked(d time.Duration, f func()) *simTimer {
	t := &simTimer{clock: s, deadline: s.now.Add(d), fn: f}
	if f == nil {
		t.ch = make(chan time.Time, 1)
		if d <= 0 {
			t.fired = true
			//lint:allow lockorder the timer channel is buffered(1) and fired guards the only send, so it cannot block
			t.ch <- s.now
			return t
		}
	}
	t.seq = s.seq
	s.seq++
	heap.Push(&s.pending, t)
	return t
}

// Go implements Clock: fn runs on a new goroutine counted runnable until
// it returns.
func (s *Sim) Go(fn func()) {
	s.Unpark()
	go func() {
		defer s.Park()
		fn()
	}()
}

// Park implements Clock.
func (s *Sim) Park() {
	s.activity.Add(1)
	if s.runnable.Add(-1) <= 0 {
		s.signal()
	}
}

// Unpark implements Clock.
func (s *Sim) Unpark() {
	s.activity.Add(1)
	s.runnable.Add(1)
}

// signal wakes Drive if it is waiting; a pending signal is enough.
func (s *Sim) signal() {
	select {
	case s.quiet <- struct{}{}:
	default:
	}
}

// Runnable reports how many simulated goroutines can run right now.
func (s *Sim) Runnable() int { return int(s.runnable.Load()) }

// Advance moves simulated time forward by d, firing every timer whose
// deadline falls within the window, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	s.mu.Unlock()
	s.AdvanceTo(target)
}

// AdvanceTo moves simulated time forward to t (never backward), firing
// timers as their deadlines are crossed.
func (s *Sim) AdvanceTo(t time.Time) {
	for s.fireNext(t, false) {
	}
	s.mu.Lock()
	if t.After(s.now) {
		s.now = t
	}
	s.mu.Unlock()
}

// fireNext fires the earliest pending timer if its deadline is not after
// limit (any deadline when unbounded), moving the clock to that deadline.
// It reports whether a timer fired.
func (s *Sim) fireNext(limit time.Time, unbounded bool) bool {
	s.mu.Lock()
	if len(s.pending) == 0 || (!unbounded && s.pending[0].deadline.After(limit)) {
		s.mu.Unlock()
		return false
	}
	t := heap.Pop(&s.pending).(*simTimer)
	if t.deadline.After(s.now) {
		s.now = t.deadline
	}
	t.fired = true
	if t.fn != nil {
		s.mu.Unlock()
		t.fn()
		return true
	}
	if t.parked {
		s.Unpark()
	}
	t.ch <- s.now // buffered(1), and fired guards the only send: it cannot block
	s.mu.Unlock()
	return true
}

// PendingTimers reports how many unexpired, unstopped timers exist. Useful
// for tests that need to know a goroutine has reached its blocking point.
func (s *Sim) PendingTimers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// NextDeadline returns the deadline of the earliest pending timer and true,
// or the zero time and false when no timers are pending.
func (s *Sim) NextDeadline() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return time.Time{}, false
	}
	return s.pending[0].deadline, true
}

// Snapshot is the state Drive decides on: the runnable count and the
// timer heap.
type Snapshot struct {
	Runnable int
	// Timers is the number of pending timers and Next the earliest
	// deadline among them (zero when there are none).
	Timers int
	Next   time.Time
	// Created counts every heap timer ever created, so a timer made and
	// stopped between two snapshots still shows.
	Created uint64
}

// Snapshot returns the clock's current Snapshot.
func (s *Sim) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{Runnable: s.Runnable(), Timers: len(s.pending), Created: s.seq}
	if len(s.pending) > 0 {
		snap.Next = s.pending[0].deadline
	}
	return snap
}

// RunUntilIdle advances the clock through every pending timer, firing each
// in order, and returns the final simulated time. It is the usual way to
// drain a deterministic schedule in tests.
func (s *Sim) RunUntilIdle() time.Time {
	for s.fireNext(time.Time{}, true) {
	}
	return s.Now()
}

type simTimer struct {
	clock    *Sim
	deadline time.Time
	seq      uint64
	index    int
	ch       chan time.Time // nil for an AfterFunc timer
	fn       func()         // the AfterFunc callback
	parked   bool           // After/Sleep: firing wakes a parked receiver
	fired    bool
	stopped  bool
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

// Stop removes the timer from the heap, so stopped timers never linger
// ahead of live ones.
func (t *simTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	heap.Remove(&t.clock.pending, t.index)
	return true
}

// timerHeap orders timers by (deadline, seq).
type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*simTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
