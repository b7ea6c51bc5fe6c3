package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// config is what every workload is built from.
type config struct {
	seed int64
	dir  string // scratch directory inside the checkout (WALs, span dumps)
	// corruptFrom makes the echo and bulk servers answer their n-th and
	// every later request wrongly, counting from 1; 0 never does. Tests
	// use it to show that each output check trips, in setup or later.
	corruptFrom int
}

// corrupts counts a server's requests and tells it when to answer wrongly.
type corrupts struct {
	from int
	n    atomic.Int64
}

func newCorrupts(cfg config) *corrupts { return &corrupts{from: cfg.corruptFrom} }

// next counts one request and reports whether its reply is to be wrong.
func (c *corrupts) next() bool {
	n := c.n.Add(1)
	return c.from > 0 && n >= int64(c.from)
}

// replyWaiter is one client's wait for replies on its own port. After a
// wait that ends without a reply it moves to a fresh port of the same
// type, so that a reply arriving late lands on the abandoned port and is
// never taken for a later op's.
type replyWaiter struct {
	drv     *guardian.Process
	port    *guardian.Port
	timeout time.Duration
}

func newReplyWaiter(drv *guardian.Process, pt *guardian.PortType, capacity int) (*replyWaiter, error) {
	port, err := drv.Guardian().NewPort(pt, capacity)
	if err != nil {
		return nil, err
	}
	return &replyWaiter{drv: drv, port: port, timeout: replyTimeout}, nil
}

// name is the port the next request is to name for its reply.
func (r *replyWaiter) name() xrep.PortName { return r.port.Name() }

// receive waits for the reply to the request just sent.
func (r *replyWaiter) receive(t *tracer) (*guardian.Message, error) {
	t.begin("guardian.receive")
	m, st := r.drv.Receive(r.timeout, r.port)
	t.end()
	if st == guardian.RecvOK {
		return m, nil
	}
	port, err := r.drv.Guardian().NewPort(r.port.Type(), r.port.Capacity())
	if err != nil {
		return nil, fmt.Errorf("no reply (%v), and no fresh port: %w", st, err)
	}
	r.port = port
	return nil, fmt.Errorf("no reply: %v", st)
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// classes names the op classes whose latencies are reported
	// separately; nil when every op is alike.
	classes []string
	// setups is how many times a run builds the system; setup_s is the
	// median, and only the last system built is measured.
	setups int
	// rate is the expected ops per second, used to size sample buffers
	// so they do not grow (and allocate) inside the timed loop.
	rate int
	// window is the length of the windows a timed phase is cut into; the
	// end-to-end figures are medians over windows. 0 makes the whole
	// phase one window, for workloads with too few ops per second.
	window time.Duration
	// open builds the system from the inputs it derives from cfg.seed,
	// and reports when it finished deriving them: setup is timed from
	// then, so it measures the system's set-up, not input generation.
	open func(cfg config) (sys system, inputsDone time.Time, err error)
}

// system is one built instance of a workload: servers, clients and the
// connections between them, ready for the first timed op.
type system interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// op performs client c's next op and returns its class index. A
	// *checkError means the reply was wrong; any other error means the
	// op failed (a timeout).
	op(c int, t *tracer) (class int, err error)
	// counters reads the layers' cumulative counters.
	counters() counters
	// probe times each layer alone on this workload's own inputs.
	probe(p *prober) error
	// finish runs the end-of-run output checks.
	finish() error
	close()
}

// checkError is a wrong reply: an output check failed.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func wrongf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

func isWrong(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// counters are the layers' cumulative event counts; runs report deltas.
type counters struct {
	packets    int64 // transport datagrams/frames sent
	bytes      int64 // transport payload bytes sent
	reconnects int64 // TCP link re-establishments
	msgsSent   int64 // guardian sends accepted
	delivered  int64 // guardian messages delivered to a port
	discards   int64 // guardian messages thrown away (§3.4 reasons)
	amoCalls   int64
	amoRetries int64
	fsyncs     int64
	walBytes   int64 // on-disk WAL size
	writes     int64 // logged mutations (bank transfers)

	dstSeeds   int64
	dstVirtual time.Duration
	dstReal    time.Duration
	dstWall    time.Duration // measured around dst.Run
	dstCPU     time.Duration
	dstMsgs    int64
	dstIssued  int64
	dstAcked   int64
	dstRetries int64
}

func (a counters) minus(b counters) counters {
	return counters{
		packets: a.packets - b.packets, bytes: a.bytes - b.bytes, reconnects: a.reconnects - b.reconnects,
		msgsSent: a.msgsSent - b.msgsSent, delivered: a.delivered - b.delivered, discards: a.discards - b.discards,
		amoCalls: a.amoCalls - b.amoCalls, amoRetries: a.amoRetries - b.amoRetries,
		fsyncs: a.fsyncs - b.fsyncs, walBytes: a.walBytes - b.walBytes, writes: a.writes - b.writes,
		dstSeeds: a.dstSeeds - b.dstSeeds, dstVirtual: a.dstVirtual - b.dstVirtual, dstReal: a.dstReal - b.dstReal,
		dstWall: a.dstWall - b.dstWall, dstCPU: a.dstCPU - b.dstCPU, dstMsgs: a.dstMsgs - b.dstMsgs, dstIssued: a.dstIssued - b.dstIssued,
		dstAcked: a.dstAcked - b.dstAcked, dstRetries: a.dstRetries - b.dstRetries,
	}
}

// maxWrong bounds the check-failure messages a phase keeps.
const maxWrong = 5

// windowStats are one window's end-to-end figures.
type windowStats struct {
	opsPerS  float64
	p50      float64 // us
	allocs   float64 // per op
	bytes    float64 // per op
	cpu      float64 // us per op
	classP50 []float64
}

// phaseResult is one timed closed-loop phase.
type phaseResult struct {
	completed, failed, wrongs int64
	wrong                     []string
	all                       latencySummary   // whole phase
	byClass                   []latencySummary // whole phase
	windows                   []windowStats
	proc                      procDelta
	ctr                       counters
}

// windowMedian is the median over the phase's windows of f.
func (ph phaseResult) windowMedian(f func(windowStats) float64) float64 {
	vs := make([]float64, len(ph.windows))
	for i, w := range ph.windows {
		vs[i] = f(w)
	}
	return medianFloat(vs)
}

// setUp builds the workload's system n times, closing all but the last,
// and returns the last with every build's duration.
func setUp(wl workload, cfg config) (system, []time.Duration, error) {
	var times []time.Duration
	var sys system
	for i := 0; i < wl.setups; i++ {
		if sys != nil {
			sys.close()
		}
		s, start, err := wl.open(cfg)
		if err != nil {
			return nil, times, fmt.Errorf("setup %d: %w", i+1, err)
		}
		times = append(times, time.Since(start))
		sys = s
	}
	return sys, times, nil
}

// runPhase drives sys's clients in a closed loop for d: each client sends
// its next op only when the previous one has completed. The phase is cut
// into windows of the given length (one window when it is 0), each
// reported on its own so that a burst of interference from outside the
// process moves one window rather than the whole phase. nClasses is the
// number of op classes reported apart (0 for none); tracers is nil for an
// untraced phase, else one tracer per client.
func runPhase(sys system, nClasses, rate int, d, window time.Duration, tracers []*tracer) phaseResult {
	n := sys.clients()
	nWin := 1
	if window > 0 {
		nWin = int((d + window - 1) / window)
	}
	type sample struct {
		lat   int64
		win   uint16
		class uint8
	}
	type clientResult struct {
		samples        []sample
		failed, wrongs int64
		wrong          []string
	}
	results := make([]clientResult, n)
	capacity := int(d.Seconds()*float64(rate)/float64(n)) + 1024
	for c := range results {
		results[c].samples = make([]sample, 0, capacity)
	}
	bounds := make([]procSample, nWin+1)
	bounds[0] = sampleProc()
	ctr0 := sys.counters()
	start := bounds[0].at
	deadline := start.Add(d)
	var wg sync.WaitGroup
	// The monitor samples the process counters at each window boundary.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 1; w < nWin; w++ {
			time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
			bounds[w] = sampleProc()
		}
	}()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var t *tracer
			if tracers != nil {
				t = tracers[c]
			}
			r := &results[c]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				t.beginOp("op")
				class, err := sys.op(c, t)
				t.end()
				now := time.Now()
				if err != nil {
					r.failed++
					if isWrong(err) {
						r.wrongs++
						if len(r.wrong) < maxWrong {
							r.wrong = append(r.wrong, err.Error())
						}
					}
					continue
				}
				w := 0
				if window > 0 {
					w = min(int(now.Sub(start)/window), nWin-1)
				}
				r.samples = append(r.samples, sample{lat: int64(now.Sub(t0)), win: uint16(w), class: uint8(class)})
			}
		}(c)
	}
	wg.Wait()
	bounds[nWin] = sampleProc()

	res := phaseResult{proc: bounds[0].to(bounds[nWin]), ctr: sys.counters().minus(ctr0)}
	all := []int64{}
	byClass := make([][]int64, nClasses)
	winAll := make([][]int64, nWin)
	winClass := make([][][]int64, nWin)
	for w := range winClass {
		winClass[w] = make([][]int64, nClasses)
	}
	for _, r := range results {
		res.failed += r.failed
		res.wrongs += r.wrongs
		res.wrong = append(res.wrong, r.wrong...)
		for _, s := range r.samples {
			all = append(all, s.lat)
			winAll[s.win] = append(winAll[s.win], s.lat)
			if nClasses > 0 {
				byClass[s.class] = append(byClass[s.class], s.lat)
				winClass[s.win][s.class] = append(winClass[s.win][s.class], s.lat)
			}
		}
	}
	res.completed = int64(len(all))
	res.all = summarize(all)
	for _, s := range byClass {
		res.byClass = append(res.byClass, summarize(s))
	}
	for w := 0; w < nWin; w++ {
		ops := float64(len(winAll[w]))
		delta := bounds[w].to(bounds[w+1])
		ws := windowStats{
			opsPerS: ops / delta.wall.Seconds(),
			p50:     micros(summarize(winAll[w]).p50),
			allocs:  ratio(float64(delta.mallocs), ops),
			bytes:   ratio(float64(delta.allocBytes), ops),
			cpu:     ratio(micros(delta.cpu), ops),
		}
		for _, lats := range winClass[w] {
			ws.classP50 = append(ws.classP50, micros(summarize(lats).p50))
		}
		res.windows = append(res.windows, ws)
	}
	return res
}
