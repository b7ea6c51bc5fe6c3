package dst

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/durable"
)

// slowServer is a bank workload whose server node's log syncs each take
// real time, as a handler doing slow work would: the branch's deposit
// handler blocks in AppendSync before it replies.
type slowServer struct {
	workload
	delay time.Duration
}

func (s slowServer) wrapStore(node string, inner durable.Store) (durable.Store, error) {
	if node != serverNode {
		return inner, nil
	}
	return slowStore{Store: inner, delay: s.delay}, nil
}

type slowStore struct {
	durable.Store
	delay time.Duration
}

func (s slowStore) OpenLog(name string) (durable.Log, error) {
	l, err := s.Store.OpenLog(name)
	if err != nil {
		return nil, err
	}
	return slowLog{Log: l, delay: s.delay}, nil
}

type slowLog struct {
	durable.Log
	delay time.Duration
}

func (l slowLog) Sync() {
	time.Sleep(l.delay)
	l.Log.Sync()
}

func (l slowLog) AppendSync(data []byte) uint64 {
	time.Sleep(l.delay)
	return l.Log.AppendSync(data)
}

// TestVerdictIndependentOfHostSpeed: a run's outcome is a function of its
// seed, not of how fast the host runs the handlers or how many threads
// the Go scheduler has. One fault-free seed runs with the server's
// handler slowed by 5ms of real time per log sync, under GOMAXPROCS=1 and
// GOMAXPROCS=8. Virtual time must wait for the slow handler, so no call
// times out: both runs report the same verdict, schedule and acked
// operations, and no at-most-once retry at all. A driver that advances
// virtual time after a fixed real-time settle window fires the callers'
// timeouts during the stall and retries.
func TestVerdictIndependentOfHostSpeed(t *testing.T) {
	opts := Options{Seed: 11, Profile: QuietProfile()}.withDefaults()
	run := func(procs int) *Report {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return runWorkload(opts, Schedule(opts), slowServer{workload: newBankWorkload(opts), delay: 5 * time.Millisecond})
	}
	one, eight := run(1), run(8)
	for _, r := range []*Report{one, eight} {
		if r.Failed() {
			t.Fatalf("run failed:\n%s", r)
		}
		if r.Retries != 0 {
			t.Errorf("%d at-most-once retries on a fault-free run: a timeout fired while the server worked", r.Retries)
		}
		if r.OpsAcked != r.OpsIssued {
			t.Errorf("acked %d of %d operations on a fault-free run", r.OpsAcked, r.OpsIssued)
		}
	}
	if fmt.Sprint(one.Violations) != fmt.Sprint(eight.Violations) {
		t.Errorf("verdicts differ: GOMAXPROCS=1 %v, GOMAXPROCS=8 %v", one.Violations, eight.Violations)
	}
	if fmt.Sprint(one.Schedule) != fmt.Sprint(eight.Schedule) {
		t.Errorf("schedules differ:\n%v\n%v", one.Schedule, eight.Schedule)
	}
	if one.OpsAcked != eight.OpsAcked {
		t.Errorf("OpsAcked differs: GOMAXPROCS=1 %d, GOMAXPROCS=8 %d", one.OpsAcked, eight.OpsAcked)
	}
}
