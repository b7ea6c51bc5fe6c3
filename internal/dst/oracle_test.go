//go:build goexperiment.synctest

// synctest needs the synchronous timer channels of go1.23 and later; the
// module's go version selects the old ones by default.
//go:debug asynctimerchan=0

package dst

import (
	"sync/atomic"
	"testing"
	"testing/synctest"

	"repro/internal/vtime"
)

// TestQuiescenceOracle runs a small ring seed inside a synctest bubble
// and checks every one of vtime.Drive's "quiescent" decisions against
// synctest.Wait, which returns only once every other goroutine in the
// bubble is durably blocked. A goroutine the runnable count missed would
// still be running when Drive decided; by the time Wait returns it would
// have moved the count or the timer heap. The run must also tear down
// completely: synctest.Run fails if any goroutine outlives it.
func TestQuiescenceOracle(t *testing.T) {
	var checked, failed atomic.Int64
	restore := vtime.SetQuiescenceHook(func(s *vtime.Sim) {
		before := s.Snapshot()
		synctest.Wait()
		after := s.Snapshot()
		checked.Add(1)
		if before != after && failed.Add(1) <= 5 {
			t.Errorf("Drive decided quiescent at %+v, but after synctest.Wait the clock was %+v", before, after)
		}
	})
	defer restore()
	var rep *Report
	synctest.Run(func() {
		rep = Run(Options{
			Seed:    7,
			Profile: CombinedProfile(),
			Ring:    &RingTopology{Shards: 3, Joins: 1, Leaves: 1},
			Clients: 3,
		})
	})
	if rep.Failed() {
		t.Fatalf("ring seed failed:\n%s", rep)
	}
	if checked.Load() == 0 {
		t.Fatal("the oracle checked no quiescence decision")
	}
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d quiescence decisions disagreed with synctest.Wait", n, checked.Load())
	}
	t.Logf("%d quiescence decisions agreed with synctest.Wait", checked.Load())
}
