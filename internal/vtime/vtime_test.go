package vtime

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRealNowMonotonic(t *testing.T) {
	c := NewReal()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backward: %v then %v", a, b)
	}
}

func TestRealTimerFires(t *testing.T) {
	c := NewReal()
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire within 1s")
	}
}

func TestRealTimerStop(t *testing.T) {
	c := NewReal()
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop on unexpired timer reported false")
	}
}

func TestSimNowFrozen(t *testing.T) {
	start := time.Unix(1000, 0)
	s := NewSim(start)
	if !s.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", s.Now(), start)
	}
	// Wall time passing must not move simulated time.
	time.Sleep(2 * time.Millisecond)
	if !s.Now().Equal(start) {
		t.Fatalf("sim clock drifted to %v without Advance", s.Now())
	}
}

func TestSimAdvanceFiresTimerAtDeadline(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	tm := s.NewTimer(10 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired before Advance")
	default:
	}
	s.Advance(9 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired 1s early")
	default:
	}
	s.Advance(time.Second)
	select {
	case at := <-tm.C():
		want := time.Unix(10, 0)
		if !at.Equal(want) {
			t.Fatalf("timer delivered time %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestSimTimersFireInDeadlineOrder(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	delays := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, d := range delays {
		wg.Add(1)
		tm := s.NewTimer(d)
		go func(i int, tm Timer) {
			defer wg.Done()
			<-tm.C()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i, tm)
	}
	// Advance step-wise so each goroutine records before the next fires.
	for _, step := range []time.Duration{10 * time.Second, 10 * time.Second, 10 * time.Second} {
		s.Advance(step)
		time.Sleep(time.Millisecond) // allow the woken goroutine to record
	}
	wg.Wait()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
}

func TestSimEqualDeadlinesFireInCreationOrder(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	t1 := s.NewTimer(5 * time.Second)
	t2 := s.NewTimer(5 * time.Second)
	s.Advance(5 * time.Second)
	// Both fired; verify both channels hold the value and t1 was queued
	// first (heap tie-break by sequence).
	<-t1.C()
	<-t2.C()
}

func TestSimZeroDurationFiresImmediately(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	tm := s.NewTimer(0)
	select {
	case <-tm.C():
	default:
		t.Fatal("zero-duration timer did not fire immediately")
	}
}

func TestSimStopPreventsFire(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	tm := s.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop reported false on pending timer")
	}
	s.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	if n := s.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers = %d after Stop, want 0 (Stop must remove the timer from the heap)", n)
	}
	// A stopped AfterFunc timer never runs its callback either.
	ran := false
	ft := s.AfterFunc(time.Second, func() { ran = true })
	if !ft.Stop() {
		t.Fatal("Stop reported false on a pending AfterFunc timer")
	}
	s.Advance(2 * time.Second)
	if ran {
		t.Fatal("stopped AfterFunc timer ran its callback")
	}
}

func TestSimSleepWakesOnAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		s.Sleep(5 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register its timer.
	for s.PendingTimers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	s.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestSimAdvanceToNeverMovesBackward(t *testing.T) {
	s := NewSim(time.Unix(100, 0))
	s.AdvanceTo(time.Unix(50, 0))
	if got := s.Now(); !got.Equal(time.Unix(100, 0)) {
		t.Fatalf("AdvanceTo moved time backward to %v", got)
	}
}

func TestSimRunUntilIdle(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	var fired int
	t1 := s.NewTimer(time.Second)
	t2 := s.NewTimer(3 * time.Second)
	go func() { <-t1.C(); <-t2.C() }()
	end := s.RunUntilIdle()
	if !end.Equal(time.Unix(3, 0)) {
		t.Fatalf("RunUntilIdle ended at %v, want t=3s", end)
	}
	_ = fired
	if n := s.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers = %d after RunUntilIdle, want 0", n)
	}
}

func TestSimNextDeadlineSkipsStopped(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	early := s.NewTimer(time.Second)
	s.NewTimer(5 * time.Second)
	early.Stop()
	d, ok := s.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline reported no pending timers")
	}
	if !d.Equal(time.Unix(5, 0)) {
		t.Fatalf("NextDeadline = %v, want t=5s (stopped timer must be skipped)", d)
	}
	// Stopping timers from the middle of the heap keeps it ordered: after
	// stopping every other timer, the survivors come out in deadline order.
	var timers []Timer
	for i := 10; i > 0; i-- {
		timers = append(timers, s.NewTimer(time.Duration(i)*time.Second+time.Millisecond))
	}
	for i := 0; i < len(timers); i += 2 {
		timers[i].Stop()
	}
	if n := s.PendingTimers(); n != 6 {
		t.Fatalf("PendingTimers = %d, want 6 (the 5s timer and five survivors)", n)
	}
	var got []time.Duration
	for {
		d, ok := s.NextDeadline()
		if !ok {
			break
		}
		got = append(got, d.Sub(time.Unix(0, 0)))
		s.AdvanceTo(d)
	}
	want := []time.Duration{time.Second + time.Millisecond, 3*time.Second + time.Millisecond,
		5 * time.Second, 5*time.Second + time.Millisecond, 7*time.Second + time.Millisecond, 9*time.Second + time.Millisecond}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deadlines after stops = %v, want %v", got, want)
	}
}

func TestSimSinceTracksAdvance(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	mark := s.Now()
	s.Advance(42 * time.Second)
	if got := s.Since(mark); got != 42*time.Second {
		t.Fatalf("Since = %v, want 42s", got)
	}
}

func TestSimConcurrentTimerCreation(t *testing.T) {
	s := NewSim(time.Unix(0, 0))
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tm := s.NewTimer(time.Duration(i%10+1) * time.Second)
			_ = tm
		}(i)
	}
	wg.Wait()
	if got := s.PendingTimers(); got != n {
		t.Fatalf("PendingTimers = %d, want %d", got, n)
	}
	s.Advance(10 * time.Second)
	if got := s.PendingTimers(); got != 0 {
		t.Fatalf("PendingTimers = %d after draining Advance, want 0", got)
	}
}

func TestRealAfterAndSleep(t *testing.T) {
	c := NewReal()
	start := c.Now()
	c.Sleep(2 * time.Millisecond)
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("After never fired")
	}
	if c.Since(start) < 3*time.Millisecond {
		t.Fatalf("Since = %v, want ≥ 3ms", c.Since(start))
	}
}
