package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrep"
)

// Each probe times one layer's public call alone, on the inputs the
// workload's own ops carry, and counts its heap allocations. Probe spans
// are roots of their own ops in the span dump.

const (
	probeMaxIters = 400
	probeMinIters = 5
	probeBudget   = 250 * time.Millisecond
	// fragmentMTU is guardian.Config's default FragmentMTU, the packet
	// size every workload's frames are cut to.
	fragmentMTU = 16 * 1024
)

// prober runs probes and collects their metrics by name.
type prober struct {
	t       *tracer
	metrics map[string]float64
	// phase is the traced phase's counter deltas, for probes sized by
	// what the workload did.
	phase counters
}

func newProber(t *tracer, phase counters) *prober {
	return &prober{t: t, metrics: make(map[string]float64), phase: phase}
}

// measure calls fn until it has run probeMaxIters times or probeBudget
// has passed (but at least probeMinIters times), each call under a span
// named name. It records name_ns (the median call) and name_allocs (heap
// allocations per call) under prefix.
func (p *prober) measure(prefix string, fn func() error) error {
	durs := make([]int64, 0, probeMaxIters)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < probeMaxIters && (i < probeMinIters || time.Since(start) < probeBudget); i++ {
		t0 := time.Now()
		p.t.beginOp(prefix)
		err := fn()
		p.t.end()
		durs = append(durs, int64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("probe %s: %w", prefix, err)
		}
	}
	runtime.ReadMemStats(&after)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p.metrics[prefix+"_ns"] = float64(percentile(durs, 50))
	p.metrics[prefix+"_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(durs))
	return nil
}

// probeCodec times the xrep and wire layers on one op's arguments, sent
// as frame (whose Args the probe fills in). When reg is non-nil the first
// argument is an abstract value and its decode is timed too. It returns
// the frame's first packet, the unit the transports carry.
func (p *prober) probeCodec(args []any, reg *xrep.Registry, frame wire.Frame) ([]byte, error) {
	enc, err := xrep.EncodeAll(args...)
	if err != nil {
		return nil, err
	}
	if err := p.measure("xrep.encode", func() error { _, err := xrep.EncodeAll(args...); return err }); err != nil {
		return nil, err
	}
	if reg != nil {
		if err := p.measure("xrep.decode", func() error { _, err := reg.Decode(enc[0]); return err }); err != nil {
			return nil, err
		}
	}
	frame.Args = enc
	raw, err := frame.Marshal()
	if err != nil {
		return nil, err
	}
	if err := p.measure("wire.marshal", func() error { _, err := frame.Marshal(); return err }); err != nil {
		return nil, err
	}
	if err := p.measure("wire.unmarshal", func() error { _, err := wire.UnmarshalFrame(raw); return err }); err != nil {
		return nil, err
	}
	pkts, err := wire.Fragment(1, raw, fragmentMTU)
	if err != nil {
		return nil, err
	}
	p.metrics["wire.fragments_per_frame"] = float64(len(pkts))
	ra := wire.NewReassembler()
	msgID := uint64(0)
	err = p.measure("wire.reassemble", func() error {
		msgID++
		pkts, err := wire.Fragment(msgID, raw, fragmentMTU)
		if err != nil {
			return err
		}
		now := time.Now()
		for i, pkt := range pkts {
			got, err := ra.Add("probe", pkt, now)
			if err != nil {
				return err
			}
			if (got != nil) != (i == len(pkts)-1) {
				return fmt.Errorf("frame completed after %d of %d packets", i+1, len(pkts))
			}
		}
		return nil
	})
	return pkts[0], err
}

// probeOneway times a raw Send→Handler on a transport pair: from is
// attached on src, to on dst. The time runs from Send until the probing
// goroutine has been told the handler saw the payload.
func (p *prober) probeOneway(prefix string, src, dst transport.Transport, from, to transport.Addr, payload []byte) error {
	arrived := make(chan time.Time, 1)
	if err := dst.Attach(to, func(_ transport.Addr, pl []byte) {
		if len(pl) == len(payload) {
			select {
			case arrived <- time.Now():
			default: // a duplicate; never block the receive loop
			}
		}
	}); err != nil {
		return err
	}
	if err := src.Attach(from, func(transport.Addr, []byte) {}); err != nil {
		return err
	}
	// One timer bounds the whole probe, so a lost payload fails it
	// without a per-send timer allocation skewing the alloc count.
	giveUp := time.NewTimer(10 * time.Second)
	defer giveUp.Stop()
	send := func() error {
		if err := src.Send(from, to, payload); err != nil {
			return err
		}
		select {
		case <-arrived:
			return nil
		case <-giveUp.C:
			return fmt.Errorf("%s: payload of %d bytes never arrived", prefix, len(payload))
		}
	}
	if err := send(); err != nil { // dials a stream transport's link
		return err
	}
	return p.measure(prefix, send)
}

// probeUDP times one datagram of payload's size over loopback UDP.
func (p *prober) probeUDP(payload []byte) error {
	u, err := transport.NewUDP(transport.UDPConfig{
		Peers: map[transport.Addr]string{"pa": "127.0.0.1:0", "pb": "127.0.0.1:0"},
		MTU:   65507,
	})
	if err != nil {
		return err
	}
	defer u.Close()
	if err := p.probeOneway("transport.udp.oneway", u, u, "pa", "pb", payload); err != nil {
		return err
	}
	p.rename("transport.udp.oneway_allocs", "transport.udp.allocs")
	return nil
}

// probeTCP times one frame of payload's size over a loopback TCP link.
func (p *prober) probeTCP(payload []byte) error {
	src, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer dst.Close()
	if err := src.SetPeer("pb", dst.ListenAddr()); err != nil {
		return err
	}
	if err := p.probeOneway("transport.tcp.oneway", src, dst, "pa", "pb", payload); err != nil {
		return err
	}
	p.rename("transport.tcp.oneway_allocs", "transport.tcp.allocs")
	return nil
}

// probeAppendSync times AppendSync of a size-byte record on a scratch
// on-disk WAL under dir.
func (p *prober) probeAppendSync(dir string, size int) error {
	walDir, err := os.MkdirTemp(dir, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	wal, err := durable.OpenWAL(filepath.Join(walDir, "wal"), durable.WALConfig{})
	if err != nil {
		return err
	}
	defer wal.Close()
	log, err := wal.OpenLog("probe")
	if err != nil {
		return err
	}
	rec := make([]byte, size)
	if err := p.measure("durable.appendsync", func() error { log.AppendSync(rec); return nil }); err != nil {
		return err
	}
	delete(p.metrics, "durable.appendsync_allocs")
	return nil
}

func (p *prober) rename(from, to string) {
	p.metrics[to] = p.metrics[from]
	delete(p.metrics, from)
}
