// Command perfbench is the repository's benchmark. It builds one of four
// workloads from a seed, drives it in a closed loop through the public API
// of the guardian, amo, bank, transport, durable and dst packages, checks
// every reply, and prints each metric by name with its unit. The last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is split into an untraced and a traced half, and the metrics are the
// per-layer ones, measured by spans around the benchmark's own calls into
// each layer and by timing each layer alone on the workload's inputs.
//
//	perfbench -workload echo-udp -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

var workloads = []workload{echoWorkload, bulkWorkload, bankWorkload, dstWorkload}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every untraced run reports in its JSON line:
// those that never read 0 and that repeat closely enough on a shared
// 2-vCPU host to gate on (README.md, "Bounds"). The run's table adds the
// rest: ops_per_s and max_rss_mb, the p90 (absent below 100 samples) and
// the failed ratio.
//
// Only bank-wal has two op classes, write and read. Its latency_p50_us is
// the geometric mean of the two class medians, and each class median is
// gated on its own: the median of the mixed ops falls in the gap between
// the classes and swings with either one's tail. A workload with one op
// class reports its op median under all three latency names.
var endToEnd = []metricSpec{
	{"latency_p50_us", "us"},
	{"write_latency_p50_us", "us"},
	{"read_latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "allocs"},
	{"alloc_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not exercise reads 0.
var perLayer = []metricSpec{
	{"xrep.encode_ns", "ns"},
	{"xrep.encode_allocs", "allocs"},
	{"xrep.decode_ns", "ns"},
	{"xrep.decode_allocs", "allocs"},
	{"wire.marshal_ns", "ns"},
	{"wire.marshal_allocs", "allocs"},
	{"wire.unmarshal_ns", "ns"},
	{"wire.unmarshal_allocs", "allocs"},
	{"wire.fragments_per_frame", "count"},
	{"wire.reassemble_ns", "ns"},
	{"wire.reassemble_allocs", "allocs"},
	{"transport.udp.oneway_ns", "ns"},
	{"transport.udp.allocs", "allocs"},
	{"transport.tcp.oneway_ns", "ns"},
	{"transport.tcp.allocs", "allocs"},
	{"transport.packets_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"transport.tcp.reconnects", "count"},
	{"guardian.send_ns", "ns"},
	{"guardian.receive_wait_ns", "ns"},
	{"guardian.delivered_per_sent", "ratio"},
	{"guardian.discards", "count"},
	{"amo.call_ns", "ns"},
	{"amo.retries_per_call", "ratio"},
	{"durable.fsyncs_per_write", "ratio"},
	{"durable.appendsync_ns", "ns"},
	{"durable.wal_bytes_per_write", "B"},
	{"dst.virtual_per_wall", "ratio"},
	{"dst.cpu_util", "ratio"},
	{"dst.msgs_per_seed", "count"},
	{"dst.acked_ratio", "ratio"},
	{"dst.retries_per_op", "ratio"},
	{"runtime.gc_per_kop", "count"},
	{"trace.overhead_p50_us", "us"},
}

// spansKept bounds the spans a traced run keeps for its dump; every span
// is still counted in the self-time table.
const spansKept = 50000

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes one benchmark run, or with -workload all one run of each
// workload in turn, and returns the exit code: 0 when every output check
// passed, 1 when one failed, 2 when a run could not be measured.
func run(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run, or all (-list shows them)")
	seed := fl.Int64("seed", 1, "seed every input is derived from")
	seconds := fl.Int("seconds", 10, "length of the timed run")
	trace := fl.Int("trace", 0, "1 for the traced run and its per-layer metrics")
	dir := fl.String("dir", filepath.Join(".bench_build", "work"), "scratch directory for WALs and span dumps")
	list := fl.Bool("list", false, "list the workloads and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, wl := range workloads {
			fmt.Fprintf(out, "%-9s %s\n", wl.name, wl.why)
		}
		return 0
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		if wl, ok := lookup(*name); ok {
			selected = []workload{wl}
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload (all or one of -list), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	code := 0
	for _, wl := range selected {
		res, err := execute(wl, config{seed: *seed, dir: *dir}, time.Duration(*seconds)*time.Second, *trace == 1, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 2
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func lookup(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute sets the workload up, runs it and prints its report to out. An
// error means the run could not be measured at all.
func execute(wl workload, cfg config, d time.Duration, traced bool, out io.Writer) (result, error) {
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%v traced=%v\n  why: %s\n", wl.name, cfg.seed, d.Seconds(), traced, wl.why)
	env, err := json.Marshal(stampEnvironment(cfg.dir))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "  env: %s\n", env)

	sys, setups, err := setUp(wl, cfg)
	if isWrong(err) {
		// A wrong reply to a warm-up op fails the run like one in the
		// timed loop; the failed setup counts as the one op attempted.
		fmt.Fprintf(out, "  CHECK FAILED during setup: %v\n", err)
		return result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}, nil
	}
	if err != nil {
		return result{}, err
	}
	defer sys.close()
	fmt.Fprintf(out, "  setup: %d builds, %v each\n", len(setups), setups)

	ticks0, steal0 := cpuTicks()
	var phases []phaseResult
	var values map[string]float64
	var specs []metricSpec
	if !traced {
		ph := runPhase(sys, len(wl.classes), wl.rate, d, wl.window, nil)
		phases = append(phases, ph)
		values, specs = endToEndValues(wl, ph, setups), endToEnd
		printTable(out, "end-to-end", endToEndTable(wl, ph), values)
		fmt.Fprintf(out, "  samples: %d ops in %d windows", ph.all.n, len(ph.windows))
		for i, c := range wl.classes {
			fmt.Fprintf(out, ", %d %s", ph.byClass[i].n, c)
		}
		fmt.Fprintf(out, "; rates, per-op costs and p50s are medians over windows\n")
	} else {
		untraced := runPhase(sys, len(wl.classes), wl.rate, d/2, wl.window, nil)
		epoch := time.Now()
		tracers := make([]*tracer, sys.clients())
		for i := range tracers {
			tracers[i] = newTracer(epoch, spansKept/len(tracers))
		}
		tracedPh := runPhase(sys, len(wl.classes), wl.rate, d/2, wl.window, tracers)
		probeTracer := newTracer(epoch, spansKept/10)
		p := newProber(probeTracer, tracedPh.ctr)
		if err := sys.probe(p); err != nil {
			return result{}, err
		}
		phases = append(phases, untraced, tracedPh)
		spans := mergeTracers(append(tracers, probeTracer)...)
		values, specs = layerValues(untraced, tracedPh, spans, p), perLayer
		printTable(out, "per-layer", perLayer, values)
		fmt.Fprintf(out, "  tracing overhead: latency_p50_us untraced %.3f, traced %.3f, difference %+.3f us\n",
			latencyP50(untraced), latencyP50(tracedPh), values["trace.overhead_p50_us"])
		fmt.Fprintf(out, "  self time by span (traced half and probes):\n")
		spans.writeTable(out)
		dump := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, cfg.seed))
		if err := spans.writeDump(dump); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "  span dump: %s (%d spans kept, %d only counted)\n", dump, len(spans.spans), spans.dropped)
	}

	ticks1, steal1 := cpuTicks()
	fmt.Fprintf(out, "  host: the hypervisor stole %.1f%% of this machine's CPU time during the timed run\n",
		100*ratio(float64(steal1-steal0), float64(ticks1-ticks0)))

	res := result{Correct: true, Metrics: make(map[string]metricValue, len(specs))}
	for _, ph := range phases {
		res.Attempted += ph.completed + ph.failed
		res.Failed += ph.failed
		if ph.wrongs > 0 {
			res.Correct = false
			fmt.Fprintf(out, "  CHECK FAILED: %d wrong replies, first: %v\n", ph.wrongs, ph.wrong)
		}
	}
	if err := sys.finish(); err != nil {
		res.Correct = false
		fmt.Fprintf(out, "  CHECK FAILED: %v\n", err)
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no op was attempted")
	}
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res, nil
}

// endToEndTable lists every end-to-end metric the workload has, in report
// order: the JSON set plus the tail, the read/write split and failures.
func endToEndTable(wl workload, ph phaseResult) []metricSpec {
	specs := []metricSpec{{"ops_per_s", "ops/s"}, {"latency_p50_us", "us"}}
	for _, c := range wl.classes {
		specs = append(specs, metricSpec{c + "_latency_p50_us", "us"})
	}
	if ph.all.hasP90 {
		specs = append(specs, metricSpec{"latency_p90_us", "us"})
	}
	return append(specs, metricSpec{"failed_ratio", "ratio"}, metricSpec{"allocs_per_op", "allocs"},
		metricSpec{"alloc_bytes_per_op", "B"}, metricSpec{"cpu_us_per_op", "us"},
		metricSpec{"max_rss_mb", "MiB"}, metricSpec{"setup_s", "s"})
}

// endToEndValues computes the end-to-end metrics of a phase. The rates,
// per-op costs and medians are medians over the phase's windows; the tail
// and the failures are over the whole phase.
func endToEndValues(wl workload, ph phaseResult, setups []time.Duration) map[string]float64 {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	v := map[string]float64{
		"ops_per_s":          ph.windowMedian(func(w windowStats) float64 { return w.opsPerS }),
		"latency_p50_us":     latencyP50(ph),
		"latency_p90_us":     micros(ph.all.p90),
		"failed_ratio":       ratio(float64(ph.failed), float64(ph.completed+ph.failed)),
		"allocs_per_op":      ph.windowMedian(func(w windowStats) float64 { return w.allocs }),
		"alloc_bytes_per_op": ph.windowMedian(func(w windowStats) float64 { return w.bytes }),
		"cpu_us_per_op":      ph.windowMedian(func(w windowStats) float64 { return w.cpu }),
		"max_rss_mb":         maxRSSMiB(),
		"setup_s":            medianFloat(secs),
	}
	for i, c := range wl.classes {
		v[c+"_latency_p50_us"] = classP50(ph, i)
	}
	if len(wl.classes) == 0 {
		v["write_latency_p50_us"] = v["latency_p50_us"]
		v["read_latency_p50_us"] = v["latency_p50_us"]
	}
	return v
}

func layerValues(untraced, traced phaseResult, spans traceSummary, p *prober) map[string]float64 {
	c, ops := traced.ctr, float64(traced.completed)
	v := map[string]float64{
		"transport.packets_per_op":    ratio(float64(c.packets), ops),
		"transport.bytes_per_op":      ratio(float64(c.bytes), ops),
		"transport.tcp.reconnects":    float64(c.reconnects),
		"guardian.send_ns":            spans.meanSelf("guardian.send"),
		"guardian.receive_wait_ns":    spans.meanSelf("guardian.receive"),
		"guardian.delivered_per_sent": ratio(float64(c.delivered), float64(c.msgsSent)),
		"guardian.discards":           float64(c.discards),
		"amo.call_ns":                 spans.meanSelf("amo.call"),
		"amo.retries_per_call":        ratio(float64(c.amoRetries), float64(c.amoCalls)),
		"durable.fsyncs_per_write":    ratio(float64(c.fsyncs), float64(c.writes)),
		"durable.wal_bytes_per_write": ratio(float64(c.walBytes), float64(c.writes)),
		"dst.virtual_per_wall":        ratio(float64(c.dstVirtual), float64(c.dstReal)),
		"dst.cpu_util":                ratio(float64(c.dstCPU), float64(c.dstWall)),
		"dst.msgs_per_seed":           ratio(float64(c.dstMsgs), float64(c.dstSeeds)),
		"dst.acked_ratio":             ratio(float64(c.dstAcked), float64(c.dstIssued)),
		"dst.retries_per_op":          ratio(float64(c.dstRetries), float64(c.dstIssued)),
		"runtime.gc_per_kop":          ratio(1000*float64(traced.proc.gcs), ops),
		"trace.overhead_p50_us":       latencyP50(traced) - latencyP50(untraced),
	}
	for k, x := range p.metrics {
		v[k] = x
	}
	return v
}

// latencyP50 is a phase's latency_p50_us: the median over windows of the
// op median, or with several op classes the geometric mean of the class
// medians, each class weighing the same however its ops are mixed.
func latencyP50(ph phaseResult) float64 {
	if len(ph.byClass) == 0 {
		return ph.windowMedian(func(w windowStats) float64 { return w.p50 })
	}
	logs := 0.0
	for i := range ph.byClass {
		logs += math.Log(classP50(ph, i))
	}
	return math.Exp(logs / float64(len(ph.byClass)))
}

// classP50 is the median over a phase's windows of op class i's median.
func classP50(ph phaseResult, i int) float64 {
	return ph.windowMedian(func(w windowStats) float64 { return w.classP50[i] })
}

func printTable(out io.Writer, title string, specs []metricSpec, values map[string]float64) {
	fmt.Fprintf(out, "  %s metrics:\n", title)
	for _, m := range specs {
		fmt.Fprintf(out, "    %-30s %16.4f %s\n", m.name, values[m.name], m.unit)
	}
}
