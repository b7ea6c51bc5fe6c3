package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/guardian"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrep"
)

const (
	bulkEntries = 4000 // entries per associative memory: a ~64 KB frame
	bulkValues  = 4    // distinct memories, cycled through
	bulkWarmup  = 2
)

var bulkWorkload = workload{
	name:   "bulk-tcp",
	why:    "codec and fragmentation dominate: a 4000-entry abstract value per put, sent over TCP as several 16 KiB fragments",
	setups: 25,
	rate:   300,
	window: time.Second,
	open:   openBulk,
}

// bulkSystem is a store guardian decoding associative memories into its
// own tree representation, and one driver sending hash-table ones, on two
// worlds joined by one TCP connection pair.
type bulkSystem struct {
	srvTr, cliTr *transport.TCP
	srvW, cliW   *guardian.World
	reg          *xrep.Registry
	drv          *guardian.Process
	drvID        uint64
	reply        *replyWaiter
	srv          xrep.PortName
	values       []*xrep.HashAssocMem
	next         int
}

// bulkDef is the store guardian: store(assoc_mem, replyport) decodes the
// value through the node's registry and replies stored(Len()). A
// corrupting server miscounts by one.
func bulkDef(bad *corrupts) *guardian.GuardianDef {
	pt := guardian.NewPortType("perfbench_bulk").
		Msg("store", xrep.KindRec, xrep.KindPortName).
		Replies("store", "stored")
	return &guardian.GuardianDef{
		TypeName:     "perfbench_bulk",
		Provides:     []*guardian.PortType{pt},
		PortCapacity: 64,
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("store", func(pr *guardian.Process, m *guardian.Message) {
					n := int64(-1)
					if x, err := m.Decode(0); err == nil {
						if tree, ok := x.(*xrep.TreeAssocMem); ok {
							n = int64(tree.Len())
						}
					}
					if bad.next() {
						n++
					}
					_ = pr.Send(m.Port(1), "stored", n)
				}).
				Loop(ctx.Proc, nil)
		},
	}
}

// bulkValue builds an associative memory of n distinct random keys.
func bulkValue(rng *rand.Rand, n int) *xrep.HashAssocMem {
	mem := xrep.NewHashAssocMem()
	for mem.Len() < n {
		mem.AddItem(randomText(rng, 8+rng.Intn(8)), xrep.Int(rng.Int63n(1<<32)))
	}
	return mem
}

func openBulk(cfg config) (system, time.Time, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &bulkSystem{}
	for i := 0; i < bulkValues; i++ {
		s.values = append(s.values, bulkValue(rng, bulkEntries))
	}
	start := time.Now()
	var err error
	if s.srvTr, s.cliTr, err = tcpPair("srv"); err != nil {
		return nil, start, err
	}
	s.srvW = guardian.NewWorld(guardian.Config{Transport: s.srvTr})
	s.cliW = guardian.NewWorld(guardian.Config{Transport: s.cliTr})
	if err := s.build(cfg); err != nil {
		s.close()
		return nil, start, err
	}
	return s, start, nil
}

// tcpPair makes two loopback TCP transports; the second knows how to
// dial server, the node the first will host.
func tcpPair(server transport.Addr) (*transport.TCP, *transport.TCP, error) {
	srv, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, nil, err
	}
	cli, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	if err := cli.SetPeer(server, srv.ListenAddr()); err != nil {
		srv.Close()
		cli.Close()
		return nil, nil, err
	}
	return srv, cli, nil
}

func (s *bulkSystem) build(cfg config) error {
	if err := s.srvW.Register(bulkDef(newCorrupts(cfg))); err != nil {
		return err
	}
	srv, err := s.srvW.AddNode("srv")
	if err != nil {
		return err
	}
	s.reg = srv.Registry()
	s.reg.Register(xrep.AssocMemTypeName, xrep.DecodeTreeAssocMem)
	created, err := srv.Bootstrap("perfbench_bulk")
	if err != nil {
		return err
	}
	s.srv = created.Ports[0]
	cli, err := s.cliW.AddNode("cli")
	if err != nil {
		return err
	}
	g, drv, err := cli.NewDriver("client")
	if err != nil {
		return err
	}
	s.drv, s.drvID = drv, g.ID()
	if s.reply, err = newReplyWaiter(drv, guardian.NewPortType("perfbench_stored").Msg("stored", xrep.KindInt), 64); err != nil {
		return err
	}
	for i := 0; i < bulkWarmup; i++ {
		if _, err := s.op(0, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *bulkSystem) clients() int { return 1 }

func (s *bulkSystem) op(_ int, t *tracer) (int, error) {
	mem := s.values[s.next%len(s.values)]
	s.next++
	t.begin("guardian.send")
	err := s.drv.Send(s.srv, "store", mem, s.reply.name())
	t.end()
	if err != nil {
		return 0, err
	}
	m, err := s.reply.receive(t)
	if err != nil {
		return 0, fmt.Errorf("bulk: %w", err)
	}
	return 0, checkCount(m, int64(mem.Len()))
}

// checkCount verifies the server decoded every entry it was sent.
func checkCount(m *guardian.Message, want int64) error {
	if m.Command != "stored" || len(m.Args) != 1 {
		return wrongf("bulk: reply %s with %d args, want stored(count)", m.Command, len(m.Args))
	}
	if got, ok := m.Args[0].(xrep.Int); !ok || int64(got) != want {
		return wrongf("bulk: server decoded %v entries, sent %d", m.Args[0], want)
	}
	return nil
}

func (s *bulkSystem) counters() counters {
	var c counters
	addTransport(&c, s.srvTr)
	addTransport(&c, s.cliTr)
	addWorld(&c, s.srvW)
	addWorld(&c, s.cliW)
	return c
}

func (s *bulkSystem) probe(p *prober) error {
	pkt, err := p.probeCodec([]any{s.values[0], s.reply.name()}, s.reg, wire.Frame{
		Dest: s.srv, SrcNode: "cli", SrcGuardian: s.drvID, MsgID: 1, Command: "store",
	})
	if err != nil {
		return err
	}
	return p.probeTCP(pkt)
}

func (s *bulkSystem) finish() error { return nil }

func (s *bulkSystem) close() {
	s.cliW.Close()
	s.srvW.Close()
}
