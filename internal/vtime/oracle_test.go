//go:build goexperiment.synctest

// synctest needs the synchronous timer channels of go1.23 and later; the
// module's go version selects the old ones by default.
//go:debug asynctimerchan=0

package vtime

import (
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"
)

// oracleCheck installs a quiescence hook that checks every one of Drive's
// "quiescent" decisions against testing/synctest, an independent judge of
// the same property: synctest.Wait returns only once every other
// goroutine in the bubble is durably blocked. If the runnable count were
// missing a goroutine, that goroutine would still be running when Drive
// decided, and by the time Wait returns it would have changed the count
// or the timer heap. The returned function removes the hook and reports
// how many decisions were checked and how many failed.
func oracleCheck(t testing.TB) (finish func() (checked, failed int)) {
	var n, bad atomic.Int64
	restore := SetQuiescenceHook(func(s *Sim) {
		before := s.Snapshot()
		synctest.Wait()
		after := s.Snapshot()
		n.Add(1)
		if before != after {
			if bad.Add(1) <= 5 {
				t.Errorf("Drive decided quiescent at %+v, but after synctest.Wait the clock was %+v", before, after)
			}
		}
	})
	return func() (int, int) {
		restore()
		return int(n.Load()), int(bad.Load())
	}
}

// TestQuiescenceOracle drives a small simulation of sleepers, waiters,
// events and real-time work inside a synctest bubble and checks each of
// Drive's quiescence decisions with synctest.Wait.
func TestQuiescenceOracle(t *testing.T) {
	synctest.Run(func() {
		finish := oracleCheck(t)
		s := NewSim(time.Unix(0, 0))
		var ev Event
		var done atomic.Int32
		const workers = 8
		for i := 0; i < workers; i++ {
			s.Go(func() {
				defer done.Add(1)
				for j := 0; j < 20; j++ {
					time.Sleep(time.Microsecond) // real work between waits
					s.Sleep(time.Duration(1+(i*7+j)%5) * time.Millisecond)
					w := NewWaiter(s)
					ev.Subscribe(w)
					s.AfterFunc(time.Duration(1+j%3)*time.Millisecond, func() { w.Wake() })
					w.Wait()
					ev.Unsubscribe(w)
				}
			})
		}
		s.Go(func() {
			s.Sleep(50 * time.Millisecond)
			ev.Fire()
		})
		s.Drive(func() bool { return done.Load() == workers })
		s.RunUntilIdle()
		checked, failed := finish()
		if checked == 0 {
			t.Fatal("the oracle checked no quiescence decision")
		}
		if failed > 0 {
			t.Fatalf("%d of %d quiescence decisions disagreed with synctest.Wait", failed, checked)
		}
		t.Logf("%d quiescence decisions agreed with synctest.Wait", checked)
	})
}
