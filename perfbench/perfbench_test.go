package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/amo"
	"repro/internal/dst"
	"repro/internal/guardian"
	"repro/internal/xrep"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		samples []int64
		p       float64
		want    int64
	}{
		{ten, 50, 5}, // lower middle of an even count
		{ten, 90, 9},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 90, 7},
		{[]int64{1, 2, 3}, 50, 2},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.samples, c.p, got, c.want)
		}
	}
}

// descending returns n, n-1, ..., 1: summarize must sort before ranking.
func descending(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(n - i)
	}
	return s
}

func TestSummarizeOmitsP90BelowHundredSamples(t *testing.T) {
	s := summarize(descending(99))
	if s.hasP90 || s.p90 != 0 {
		t.Errorf("99 samples: p90 reported (%v)", s.p90)
	}
	if s.n != 99 || s.p50 != 50 {
		t.Errorf("99 samples: n=%d p50=%d, want 99 and 50", s.n, s.p50)
	}
	s = summarize(descending(100))
	if !s.hasP90 || s.p90 != 90 || s.p50 != 50 {
		t.Errorf("100 samples: hasP90=%v p90=%d p50=%d, want true, 90, 50", s.hasP90, s.p90, s.p50)
	}
	s = summarize(descending(1000))
	if s.p90 != 900 || s.p50 != 500 {
		t.Errorf("1000 samples: p90=%d p50=%d, want 900 and 500", s.p90, s.p50)
	}
}

func TestRatioAndMedians(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	for _, c := range []struct {
		vs   []float64
		want float64
	}{{[]float64{4, 1, 3, 2}, 2.5}, {[]float64{3, 1, 2}, 2}, {[]float64{7}, 7}, {nil, 0}} {
		if got := medianFloat(c.vs); got != c.want {
			t.Errorf("medianFloat(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(time.Now(), 16)
	tr.beginOp("op")
	tr.begin("child")
	time.Sleep(time.Millisecond)
	tr.end()
	tr.begin("child")
	tr.end()
	tr.end()
	sum := mergeTracers(tr)
	if len(sum.spans) != 3 {
		t.Fatalf("kept %d spans, want 3", len(sum.spans))
	}
	var root spanRec
	var childDur int64
	for _, s := range sum.spans {
		if s.Name == "op" {
			root = s
		} else {
			childDur += s.Dur
			if s.Self != s.Dur {
				t.Errorf("leaf self %d != dur %d", s.Self, s.Dur)
			}
		}
	}
	if root.Self != root.Dur-childDur || root.Parent != 0 {
		t.Errorf("root self %d, want dur %d - children %d", root.Self, root.Dur, childDur)
	}
	for _, s := range sum.spans {
		if s.Op != root.Op {
			t.Errorf("span %s has op %d, want the root's %d", s.Name, s.Op, root.Op)
		}
		if s.Name == "child" && s.Parent != root.ID {
			t.Errorf("child parent %d, want %d", s.Parent, root.ID)
		}
	}
	if a := sum.aggs["child"]; a.count != 2 || a.total != childDur {
		t.Errorf("child aggregate %+v, want 2 spans totalling %d", a, childDur)
	}
}

func msg(command string, args ...xrep.Value) *guardian.Message {
	return &guardian.Message{Command: command, Args: xrep.Seq(args)}
}

func TestChecksTripOnCorruptedReplies(t *testing.T) {
	cases := []struct {
		name string
		err  error
		ok   bool
	}{
		{"echo ok", checkEcho(msg("pong", xrep.Str("abc")), "abc"), true},
		{"echo payload", checkEcho(msg("pong", xrep.Str("abd")), "abc"), false},
		{"echo kind", checkEcho(msg("pong", xrep.Int(1)), "abc"), false},
		{"echo command", checkEcho(msg("failure", xrep.Str("abc")), "abc"), false},
		{"count ok", checkCount(msg("stored", xrep.Int(4000)), 4000), true},
		{"count off by one", checkCount(msg("stored", xrep.Int(4001)), 4000), false},
		{"count decode failed", checkCount(msg("stored", xrep.Int(-1)), 4000), false},
		{"audit ok", checkAudit(msg("audit_info", xrep.Int(64), xrep.Int(1000)), 64, 1000), true},
		{"audit total", checkAudit(msg("audit_info", xrep.Int(64), xrep.Int(999)), 64, 1000), false},
		{"audit accounts", checkAudit(msg("audit_info", xrep.Int(63), xrep.Int(1000)), 64, 1000), false},
		{"balance ok", checkBalance(msg("balance_is", xrep.Int(10)), 1000), true},
		{"balance negative", checkBalance(msg("balance_is", xrep.Int(-1)), 1000), false},
		{"balance too much", checkBalance(msg("balance_is", xrep.Int(1001)), 1000), false},
		{"balance no account", checkBalance(msg("no_account"), 1000), false},
		{"transfer ok", checkTransfer(&amo.Reply{Command: "ok"}), true},
		{"transfer insufficient", checkTransfer(&amo.Reply{Command: "insufficient"}), true},
		{"transfer no account", checkTransfer(&amo.Reply{Command: "no_account"}), false},
		{"seed ok", checkSeed(&dst.Report{Seed: 1}), true},
		{"seed violated", checkSeed(&dst.Report{Seed: 1, Violations: []dst.Violation{{Invariant: "conservation", Detail: "lost 5"}}}), false},
	}
	for _, c := range cases {
		if c.ok && c.err != nil {
			t.Errorf("%s: unexpected error %v", c.name, c.err)
		}
		if !c.ok && !isWrong(c.err) {
			t.Errorf("%s: got %v, want a check failure", c.name, c.err)
		}
	}
}

// A server that answers wrongly from its first request on fails the
// workload's warm-up ops, and the run reports itself incorrect.
func TestCorruptServersFailSetup(t *testing.T) {
	for _, wl := range []workload{echoWorkload, bulkWorkload} {
		cfg := config{seed: 1, dir: t.TempDir(), corruptFrom: 1}
		sys, _, err := wl.open(cfg)
		if err == nil {
			sys.close()
			t.Fatalf("%s: a corrupting server passed the warm-up checks", wl.name)
		}
		if !isWrong(err) {
			t.Errorf("%s: got %v, want a check failure", wl.name, err)
		}
		res, err := execute(wl, cfg, time.Second, false, io.Discard)
		if err != nil || res.Correct || res.Failed < 1 {
			t.Errorf("%s: execute = %+v, %v; want an incorrect result", wl.name, res, err)
		}
	}
}

// A server that turns wrong only after the warm-up fails the timed loop's
// checks, and the run reports itself incorrect.
func TestCorruptRepliesFailTimedRun(t *testing.T) {
	for _, c := range []struct {
		wl     workload
		warmup int
	}{{echoWorkload, echoWarmup}, {bulkWorkload, bulkWarmup}} {
		c.wl.setups = 1
		res, err := execute(c.wl, config{seed: 1, dir: t.TempDir(), corruptFrom: c.warmup + 1}, time.Second, false, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", c.wl.name, err)
		}
		if res.Correct || res.Failed < 1 || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every timed op failed and the run incorrect",
				c.wl.name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// An op whose reply comes too late fails on its own: the late reply does
// not answer the next op, and the end-of-run checks still pass.
func TestLateReplyDoesNotPoisonLaterOps(t *testing.T) {
	for _, wl := range []workload{echoWorkload, bulkWorkload, bankWorkload} {
		sys, _, err := wl.open(config{seed: 1, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		var waiter *replyWaiter
		switch s := sys.(type) {
		case *echoSystem:
			waiter = s.reply
		case *bulkSystem:
			waiter = s.reply
		case *bankSystem:
			waiter = s.tellers[0].reply
		}
		// A zero timeout polls: the reply cannot have arrived yet. Bank
		// ops are half transfers, which do not use the waiter, so try a
		// few times for a read.
		waiter.timeout = 0
		timedOut := false
		for i := 0; i < 20 && !timedOut; i++ {
			_, err := sys.op(0, nil)
			if isWrong(err) {
				t.Fatalf("%s: %v", wl.name, err)
			}
			timedOut = err != nil
		}
		if !timedOut {
			t.Fatalf("%s: no op timed out", wl.name)
		}
		waiter.timeout = replyTimeout
		time.Sleep(100 * time.Millisecond) // the late reply arrives
		for i := 0; i < 20; i++ {
			if _, err := sys.op(0, nil); err != nil {
				t.Fatalf("%s: op %d after a timeout: %v", wl.name, i, err)
			}
		}
		if err := sys.finish(); err != nil {
			t.Fatalf("%s: end-of-run check after a timeout: %v", wl.name, err)
		}
		sys.close()
	}
}

// The bank's final audit catches money made or lost: here, the benchmark's
// record of the funded total disagrees with the branch by one.
func TestBankAuditTripsOnWrongTotal(t *testing.T) {
	sys, _, err := openBank(config{seed: 1, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if err := sys.finish(); err != nil {
		t.Fatalf("audit of an honest run: %v", err)
	}
	sys.(*bankSystem).funded++
	if err := sys.finish(); !isWrong(err) {
		t.Fatalf("audit against a wrong total: got %v, want a check failure", err)
	}
}

// Both kinds of run report exactly the metrics BENCHMARK.json names.
func TestRunReportsEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res, err := execute(echoWorkload, config{seed: 1, dir: t.TempDir()}, time.Second, traced, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(specs))
		}
		for _, m := range specs {
			v, ok := res.Metrics[m.name]
			if !ok || v.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, v, m.unit)
			}
			if !traced && v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
			}
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in perfbench", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(listed), len(specs))
		}
		for i, m := range listed {
			if m.Name != specs[i].name || m.Unit != specs[i].unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s in perfbench", kind, i, m.Name, m.Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
}
