package vtime

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// defaultStallLimit is how long Drive waits for a simulation that makes
// no progress — goroutines counted runnable but none parking or waking —
// before it reports a hang.
const defaultStallLimit = 10 * time.Second

// quiescenceHook, when set, is called each time Drive finds the
// simulation quiescent; see SetQuiescenceHook.
var quiescenceHook atomic.Pointer[func(*Sim)]

// SetQuiescenceHook installs f to be called by every Drive each time it
// finds its simulation quiescent, just before it fires the next timer,
// and returns a function restoring the previous hook. It exists for test
// oracles that check the quiescence decision against an independent
// one; f must not touch the clock. A nil f removes the hook.
func SetQuiescenceHook(f func(*Sim)) (restore func()) {
	var p *func(*Sim)
	if f != nil {
		p = &f
	}
	old := quiescenceHook.Swap(p)
	return func() { quiescenceHook.Store(old) }
}

// Drive runs the simulated clock hands-free until done reports true. It
// waits until the simulation is quiescent — no goroutine started with Go
// is runnable — then checks done, then fires the single earliest pending
// timer, moving virtual time to its deadline, and waits again. While
// anything can run, Drive blocks on a signal; it never sleeps or spins,
// so virtual time moves only when every simulated goroutine waits on the
// clock, however long the host takes to run them.
//
// This is the virtual-time event scheduler the deterministic simulation
// harness (internal/dst) runs on: every component blocks only on this
// clock (network delays, receive timeouts, retry backoff, fault-schedule
// offsets), so a whole multi-node run — seconds of simulated traffic,
// crashes and partitions included — completes in milliseconds of real
// time, in deadline order.
//
// A goroutine that blocks on something the clock cannot see keeps the
// count above zero forever. Drive does not hang on it: when the count
// stays above zero with no park, wake or spawn for the stall limit
// (10s of real time), or nothing is runnable or scheduled and done is
// still false, Drive panics with a dump of every goroutine.
//
// Drive controls when virtual time moves, not how the Go scheduler
// interleaves the goroutines one timer wakes; see DESIGN.md §7 for what
// that does and does not guarantee.
func (s *Sim) Drive(done func() bool) {
	g := s.newGuard()
	defer g.timer.Stop()
	for {
		s.awaitQuiet(g)
		if done() {
			return
		}
		if h := quiescenceHook.Load(); h != nil {
			(*h)(s)
		}
		if !s.fireNext(time.Time{}, true) {
			// Nothing runnable, nothing scheduled: only a goroutine the
			// clock does not count could still make progress.
			g.await(s, "deadlock: no simulated goroutine is runnable and no timer is pending, but the run is not done")
		}
	}
}

// awaitQuiet blocks until no simulated goroutine is runnable.
func (s *Sim) awaitQuiet(g *guard) {
	for {
		switch n := s.runnable.Load(); {
		case n == 0:
			return
		case n < 0:
			panic(s.stallReport("runnable count went negative: a goroutine not started with Go parked on the clock"))
		}
		g.await(s, "hang: simulated goroutines stay runnable but none parks, wakes or exits")
	}
}

// guard is Drive's hang detector: a reusable real-time timer plus the
// activity reading at its last expiry.
type guard struct {
	timer *time.Timer
	limit time.Duration
	last  uint64
}

func (s *Sim) newGuard() *guard {
	limit := s.stallLimit
	if limit <= 0 {
		limit = defaultStallLimit
	}
	return &guard{timer: time.NewTimer(limit), limit: limit, last: s.activity.Load()}
}

// await waits for the clock's signal. If the stall limit passes with no
// activity at all, it panics with why and a goroutine dump.
func (g *guard) await(s *Sim, why string) {
	for {
		select {
		case <-s.quiet:
			return
		case <-g.timer.C:
			now := s.activity.Load()
			if now == g.last {
				panic(s.stallReport(fmt.Sprintf("%s (no activity for %v)", why, g.limit)))
			}
			g.last = now
			g.timer.Reset(g.limit)
		}
	}
}

// stallReport renders a Drive failure: the reason, the clock's state, and
// every goroutine's stack.
func (s *Sim) stallReport(why string) string {
	snap := s.Snapshot()
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return fmt.Sprintf("vtime: Drive %s\nvirtual time %v, runnable %d, pending timers %d\n\n%s",
		why, s.Now(), snap.Runnable, snap.Timers, buf)
}
