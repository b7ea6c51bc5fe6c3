// Package vtime provides the clock abstraction used by every time-dependent
// component of the runtime (network latency, receive timeouts, crash
// schedules).
//
// Two implementations are provided: Real, a thin wrapper over the wall
// clock, and Sim, a deterministic simulated clock whose time advances only
// when a test calls Advance or Drive. All runtime components take a Clock
// so that unit tests of timeout logic are exact and reproducible, while
// system-level benches run against the wall clock.
//
// A Sim also keeps count of the simulated goroutines that can run. Code
// that runs on a Sim starts its goroutines with Clock.Go, and every
// blocking point it can reach hands its wake-up back to the clock: Sleep
// and After count themselves, Waiter and Event wakes (and the Sim's
// AfterFunc callbacks that issue them) count the goroutine they release,
// and other waits bracket themselves with Park and Unpark. Drive uses the
// count to advance virtual time only when nothing can run. On Real every
// one of these hooks is a no-op.
package vtime

import "time"

// Clock abstracts the passage of time.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// After returns a channel that receives the then-current time once d
	// has elapsed on this clock. On a Sim the caller counts as parked
	// until the channel fires, so After is for a goroutine that receives
	// from the channel at once and waits on nothing else.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d. Its channel is not
	// a counted wake-up: a simulated goroutine waits for a timeout with
	// Sim.AfterFunc and a Waiter instead.
	NewTimer(d time.Duration) Timer
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
	// Go runs fn on a new goroutine. A Sim counts the goroutine runnable
	// until fn returns, except while it is parked.
	Go(fn func())
	// Park tells the clock the calling goroutine is about to block on a
	// wake-up that some other party will count with Unpark. Every Park is
	// matched by exactly one Unpark, in either order.
	Park()
	// Unpark counts one parked goroutine runnable again. The caller is
	// the party that wakes it, and calls Unpark before the wake-up.
	Unpark()
}

// Timer is a single-shot timer bound to a Clock.
type Timer interface {
	// C returns the channel on which the expiry is delivered; nil for a
	// Sim.AfterFunc timer.
	C() <-chan time.Time
	// Stop prevents the timer from firing. It reports whether the call
	// stopped the timer before it fired.
	Stop() bool
}

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

// NewReal returns the wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// Go implements Clock: a plain go statement.
func (Real) Go(fn func()) { go fn() }

// Park implements Clock: the wall clock keeps no count.
func (Real) Park() {}

// Unpark implements Clock: the wall clock keeps no count.
func (Real) Unpark() {}

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop() bool          { return rt.t.Stop() }
