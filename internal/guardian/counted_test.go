package guardian

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestCountedWaitsOnSimulatedClock runs processes through every way a
// counted wait can end — a Pause, a receive timeout, a delivered message,
// a Signal notified before and during an Await, and the guardian's death
// — under vtime.Drive. Every wait must end with the right status at the
// right virtual time, and when everything has finished the clock must
// count no runnable goroutine: each park was matched by exactly one wake.
func TestCountedWaitsOnSimulatedClock(t *testing.T) {
	clock := vtime.NewSim(time.Unix(0, 0))
	w := NewWorld(Config{Clock: clock})
	n := w.MustAddNode("n")
	pt := NewPortType("t").Msg("x")

	var mu sync.Mutex
	var log []string
	note := func(format string, args ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf("%v %s", clock.Since(time.Unix(0, 0)), fmt.Sprintf(format, args...)))
		mu.Unlock()
	}
	var sig Signal
	var port atomic.Pointer[Port]
	var finished atomic.Int32
	w.MustRegister(&GuardianDef{
		TypeName: "waiter",
		Init: func(ctx *Ctx) {
			pr := ctx.Proc
			p := ctx.G.MustNewPort(pt, 4)
			port.Store(p)
			note("pause %v", pr.Pause(time.Second))
			_, st := pr.Receive(time.Second, p)
			note("receive %v", st)
			_, st = pr.Receive(time.Hour, p)
			note("receive %v", st)
			sig.Notify() // pending: the next Await returns at once
			note("await %v", pr.Await(&sig, time.Hour))
			note("await %v", pr.Await(&sig, time.Second))
			note("await %v", pr.Await(&sig, time.Hour))
			_, st = pr.Receive(time.Hour, p)
			note("receive %v", st)
			finished.Add(1)
		},
	})
	if _, err := n.Bootstrap("waiter"); err != nil {
		t.Fatal(err)
	}
	clock.Go(func() {
		clock.Sleep(3 * time.Second)
		drv, pr, err := n.NewDriver("sender")
		if err != nil {
			t.Error(err)
			return
		}
		defer drv.SelfDestruct()
		if err := pr.Send(port.Load().Name(), "x"); err != nil {
			t.Error(err)
		}
		clock.Sleep(2 * time.Second) // the waiter's second Await times out at 4s
		sig.Notify()                 // and this ends its third at 5s
		clock.Sleep(time.Second)
		n.Crash() // and this its last receive, at 6s
		finished.Add(1)
	})
	clock.Drive(func() bool { return finished.Load() == 2 })

	want := []string{
		"1s pause true",
		"2s receive timeout",
		"3s receive ok",
		"3s await ok",
		"4s await timeout",
		"5s await ok",
		"6s receive killed",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("waits ended as\n%v\nwant\n%v", log, want)
	}
	if r := clock.Runnable(); r != 0 {
		t.Fatalf("runnable = %d after every goroutine finished, want 0", r)
	}
}
