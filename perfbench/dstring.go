package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dst"
	"repro/internal/xrep"
)

// The sweep runs a fixed range of simulation seeds; the benchmark's seed
// picks where in the range a run starts, and the run wraps around. A run
// covers most of the range, so runs differ in seed order far more than in
// which seeds they time.
const (
	dstFirstSeed = 1001
	dstSeedRange = 32
	// dstWarmupSeed is the seed every setup runs once, so the first timed
	// seed finds the harness's code and heap warm. It lies outside the
	// range, and setup does the same work on every run.
	dstWarmupSeed = dstFirstSeed - 1
)

var dstWorkload = workload{
	name:   "dst-ring",
	why:    "the test harness as a user: one CombinedProfile seed per op on a 4-shard ring with 2 joins and 1 leave, in virtual time",
	setups: 3,
	rate:   2,
	open:   openDST,
}

// dstSystem sweeps consecutive simulation seeds, one at a time.
type dstSystem struct {
	opts dst.Options
	next int64 // index into the seed range, before wrapping
	sums counters
}

func dstOptions() dst.Options {
	return dst.Options{
		Profile: dst.CombinedProfile(),
		Ring:    &dst.RingTopology{Shards: 4, Joins: 2, Leaves: 1},
	}
}

func openDST(cfg config) (system, time.Time, error) {
	start := time.Now()
	s := &dstSystem{opts: dstOptions(), next: (cfg.seed%dstSeedRange + dstSeedRange) % dstSeedRange}
	warm := s.opts
	warm.Seed = dstWarmupSeed
	if err := checkSeed(dst.Run(warm)); err != nil {
		return nil, start, fmt.Errorf("warm-up: %w", err)
	}
	return s, start, nil
}

func (s *dstSystem) clients() int { return 1 }

func (s *dstSystem) op(_ int, t *tracer) (int, error) {
	opts := s.opts
	opts.Seed = dstFirstSeed + s.next%dstSeedRange
	s.next++
	start, cpu0 := time.Now(), cpuTime()
	t.begin("dst.run")
	rep := dst.Run(opts)
	t.end()
	s.sums.dstCPU += cpuTime() - cpu0
	s.sums.dstWall += time.Since(start)
	s.sums.dstSeeds++
	s.sums.dstVirtual += rep.VirtualElapsed
	s.sums.dstReal += rep.RealElapsed
	s.sums.dstMsgs += rep.Net.Sent
	s.sums.dstIssued += rep.OpsIssued
	s.sums.dstAcked += rep.OpsAcked
	s.sums.dstRetries += rep.Retries
	return 0, checkSeed(rep)
}

// checkSeed fails a seed whose run violated any audited invariant.
func checkSeed(rep *dst.Report) error {
	if !rep.Failed() {
		return nil
	}
	var b strings.Builder
	for i, v := range rep.Violations {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %s", v.Invariant, v.Detail)
	}
	return wrongf("dst: seed %d violated %s", rep.Seed, b.String())
}

func (s *dstSystem) counters() counters { return s.sums }

// probe times the codec layers on the frame a simulated teller's transfer
// travels in; the simulation carries no real transport or WAL to probe.
func (s *dstSystem) probe(p *prober) error {
	dest := xrep.PortName{Node: "r0", Guardian: 1, Port: 2}
	reply := xrep.PortName{Node: "clients", Guardian: 3, Port: 1}
	args, frame := transferFrame(dest, reply, "clients", 3)
	_, err := p.probeCodec(args, nil, frame)
	return err
}

func (s *dstSystem) finish() error { return nil }

func (s *dstSystem) close() {}
