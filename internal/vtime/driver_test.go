package vtime

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDriveAdvancesThroughSleepChain: a goroutine performing a chain of
// dependent sleeps (each installed only after the previous fires) must be
// carried to completion by Drive, with virtual time equal to the sum of
// the sleeps and real time far below it.
func TestDriveAdvancesThroughSleepChain(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewSim(start)
	var finished atomic.Bool
	const steps = 50
	const step = time.Second
	s.Go(func() {
		for i := 0; i < steps; i++ {
			s.Sleep(step)
		}
		finished.Store(true)
	})

	begin := time.Now()
	s.Drive(finished.Load)
	real := time.Since(begin)

	if got := s.Since(start); got != steps*step {
		t.Fatalf("virtual time advanced %v, want %v", got, steps*step)
	}
	if real > 5*time.Second {
		t.Fatalf("Drive took %v real for %v virtual; the clock is not simulated", real, steps*step)
	}
}

// TestDriveInterleavesConcurrentSleepers: concurrent goroutines with
// distinct deadlines must each fire at exactly its own virtual deadline —
// the clock may not skip past a pending earlier timer.
func TestDriveInterleavesConcurrentSleepers(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	wakeups := make(chan int64, 2)
	var woken atomic.Int32
	sleeper := func(d time.Duration) func() {
		return func() {
			ft := <-s.After(d) // the delivered value is the fire time
			wakeups <- ft.Unix()
			woken.Add(1)
		}
	}
	s.Go(sleeper(2 * time.Second))
	s.Go(sleeper(1 * time.Second))
	s.Drive(func() bool { return woken.Load() == 2 })
	got := map[int64]bool{<-wakeups: true, <-wakeups: true}
	if !got[1] || !got[2] {
		t.Fatalf("fire times = %v, want {1s, 2s}", got)
	}
}

// TestDriveIdlesUntilLateTimer: Drive must not stop making progress when a
// goroutine takes real time to reach its blocking point.
func TestDriveIdlesUntilLateTimer(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired atomic.Bool
	s.Go(func() {
		time.Sleep(2 * time.Millisecond) // real delay before any timer exists
		s.Sleep(time.Hour)
		fired.Store(true)
	})
	s.Drive(fired.Load)
	if s.Since(time.Unix(0, 0)) < time.Hour {
		t.Fatalf("virtual time %v, want >= 1h", s.Since(time.Unix(0, 0)))
	}
}

// TestDriveWaitsForSlowGoroutine: virtual time may not move while a
// simulated goroutine is still running, however long it runs in real
// time. A goroutine that works for 5ms of real time and then sets a 1ms
// timer must see it fire before a competing 10ms deadline that existed
// all along. A driver that advances after a fixed real-time settle
// window fires the 10ms deadline first.
func TestDriveWaitsForSlowGoroutine(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var mu sync.Mutex
	var order []string
	record := func(name string) {
		mu.Lock()
		order = append(order, fmt.Sprintf("%s@%v", name, s.Since(time.Unix(0, 0))))
		mu.Unlock()
	}
	var finished atomic.Int32
	s.Go(func() {
		s.Sleep(10 * time.Millisecond)
		record("competitor")
		finished.Add(1)
	})
	s.Go(func() {
		time.Sleep(5 * time.Millisecond) // real work, no clock involved
		s.Sleep(time.Millisecond)
		record("slow")
		finished.Add(1)
	})
	s.Drive(func() bool { return finished.Load() == 2 })
	want := []string{"slow@1ms", "competitor@10ms"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", order, want)
	}
}

// blockedOnUnregisteredChannel stands for a simulated goroutine that
// blocks on something the clock cannot see.
func blockedOnUnregisteredChannel(ch chan struct{}) { <-ch }

// TestDriveHangGuard: a simulated goroutine blocked on a channel the
// clock does not know keeps the runnable count above zero forever. Drive
// must fail within its stall limit, with a goroutine dump naming the
// blocked goroutine, rather than hang.
func TestDriveHangGuard(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	s.stallLimit = 200 * time.Millisecond
	ch := make(chan struct{})
	defer close(ch)
	s.Go(func() { blockedOnUnregisteredChannel(ch) })

	begin := time.Now()
	msg := drivePanic(s, func() bool { return false })
	took := time.Since(begin)
	if msg == "" {
		t.Fatal("Drive returned instead of reporting the hang")
	}
	if took > 10*s.stallLimit {
		t.Fatalf("Drive reported the hang after %v, want within about %v", took, s.stallLimit)
	}
	for _, want := range []string{"hang", "runnable 1", "blockedOnUnregisteredChannel"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("hang report lacks %q:\n%.2000s", want, msg)
		}
	}
}

// TestDriveReportsDeadlock: with every simulated goroutine parked on a
// wake-up that never comes and no timer pending, Drive must report a
// deadlock instead of idling forever.
func TestDriveReportsDeadlock(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	s.stallLimit = 200 * time.Millisecond
	w := NewWaiter(s)
	s.Go(w.Wait)
	msg := drivePanic(s, func() bool { return false })
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("Drive report = %.300q, want a deadlock report", msg)
	}
	w.Wake()
}

// drivePanic runs Drive and returns the panic message it raised, or ""
// if it returned normally.
func drivePanic(s *Sim, done func() bool) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	s.Drive(done)
	return ""
}

// TestWaiterWakesOnce: racing wakers end a wait exactly once, and the
// runnable count balances whichever wins.
func TestWaiterWakesOnce(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var ev Event
	w := NewWaiter(s)
	ev.Subscribe(w)
	var done atomic.Bool
	s.Go(func() {
		w.Wait()
		done.Store(true)
	})
	s.AfterFunc(time.Second, ev.Fire)
	var lateWake atomic.Bool
	s.AfterFunc(time.Second, func() { lateWake.Store(w.Wake()) })
	s.Drive(done.Load)
	s.RunUntilIdle()
	if lateWake.Load() {
		t.Fatal("a Wake after the Event's reported that it ended the wait")
	}
	if n := s.Runnable(); n != 0 {
		t.Fatalf("runnable = %d after every goroutine finished, want 0", n)
	}
	late := NewWaiter(s)
	ev.Subscribe(late) // subscribing to a fired Event wakes at once
	late.Wait()
	if n := s.Runnable(); n != 0 {
		t.Fatalf("runnable = %d after a late subscriber's wait, want 0", n)
	}
}
