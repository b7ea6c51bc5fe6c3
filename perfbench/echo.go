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
	echoPayloadLen = 64
	echoPayloads   = 1024 // distinct payloads, cycled through
	echoWarmup     = 200  // round trips before the first timed one
	// replyTimeout bounds every wait for a reply; on loopback a reply
	// that takes this long is lost, and the op counts as failed.
	replyTimeout = 2 * time.Second
)

var echoWorkload = workload{
	name:   "echo-udp",
	why:    "pure per-message overhead: one 64-byte ping/pong round trip over real UDP loopback, no disk, no virtual time",
	setups: 25,
	rate:   40000,
	window: time.Second,
	open:   openEcho,
}

// echoSystem is an echo guardian and one driver process, on two nodes
// sharing one UDP transport (each node binds its own socket).
type echoSystem struct {
	udp      *transport.UDP
	w        *guardian.World
	drv      *guardian.Process
	drvID    uint64
	reply    *replyWaiter
	srv      xrep.PortName
	payloads []string
	next     int
}

// echoDef is the echo guardian: every ping(payload, replyport) is answered
// with pong(payload). A corrupting server flips the payload's first byte.
func echoDef(bad *corrupts) *guardian.GuardianDef {
	pt := guardian.NewPortType("perfbench_echo").
		Msg("ping", xrep.KindString, xrep.KindPortName).
		Replies("ping", "pong")
	return &guardian.GuardianDef{
		TypeName:     "perfbench_echo",
		Provides:     []*guardian.PortType{pt},
		PortCapacity: 1024,
		Init: func(ctx *guardian.Ctx) {
			guardian.NewReceiver(ctx.Ports[0]).
				When("ping", func(pr *guardian.Process, m *guardian.Message) {
					payload := m.Str(0)
					if bad.next() {
						payload = "!" + payload[1:]
					}
					_ = pr.Send(m.Port(1), "pong", payload)
				}).
				Loop(ctx.Proc, nil)
		},
	}
}

// randomText returns n printable characters drawn from rng.
func randomText(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func openEcho(cfg config) (system, time.Time, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &echoSystem{payloads: make([]string, echoPayloads)}
	for i := range s.payloads {
		s.payloads[i] = randomText(rng, echoPayloadLen)
	}
	start := time.Now()
	udp, err := transport.NewUDP(transport.UDPConfig{
		Peers: map[transport.Addr]string{"srv": "127.0.0.1:0", "cli": "127.0.0.1:0"},
	})
	if err != nil {
		return nil, start, err
	}
	s.udp = udp
	s.w = guardian.NewWorld(guardian.Config{Transport: udp})
	if err := s.build(cfg); err != nil {
		s.close()
		return nil, start, err
	}
	return s, start, nil
}

func (s *echoSystem) build(cfg config) error {
	if err := s.w.Register(echoDef(newCorrupts(cfg))); err != nil {
		return err
	}
	srv, err := s.w.AddNode("srv")
	if err != nil {
		return err
	}
	created, err := srv.Bootstrap("perfbench_echo")
	if err != nil {
		return err
	}
	s.srv = created.Ports[0]
	cli, err := s.w.AddNode("cli")
	if err != nil {
		return err
	}
	g, drv, err := cli.NewDriver("client")
	if err != nil {
		return err
	}
	s.drv, s.drvID = drv, g.ID()
	if s.reply, err = newReplyWaiter(drv, guardian.NewPortType("perfbench_pong").Msg("pong", xrep.KindString), 64); err != nil {
		return err
	}
	for i := 0; i < echoWarmup; i++ {
		if _, err := s.op(0, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (s *echoSystem) clients() int { return 1 }

func (s *echoSystem) op(_ int, t *tracer) (int, error) {
	payload := s.payloads[s.next%len(s.payloads)]
	s.next++
	t.begin("guardian.send")
	err := s.drv.Send(s.srv, "ping", payload, s.reply.name())
	t.end()
	if err != nil {
		return 0, err
	}
	m, err := s.reply.receive(t)
	if err != nil {
		return 0, fmt.Errorf("echo: %w", err)
	}
	return 0, checkEcho(m, payload)
}

// checkEcho verifies a pong carries exactly the payload its ping sent.
func checkEcho(m *guardian.Message, want string) error {
	if m.Command != "pong" || len(m.Args) != 1 {
		return wrongf("echo: reply %s with %d args, want pong(payload)", m.Command, len(m.Args))
	}
	got, ok := m.Args[0].(xrep.Str)
	if !ok || string(got) != want {
		return wrongf("echo: payload mismatch: sent %q, got %v", want, m.Args[0])
	}
	return nil
}

func (s *echoSystem) counters() counters {
	var c counters
	addTransport(&c, s.udp)
	addWorld(&c, s.w)
	return c
}

func (s *echoSystem) probe(p *prober) error {
	pkt, err := p.probeCodec([]any{s.payloads[0], s.reply.name()}, nil, wire.Frame{
		Dest: s.srv, SrcNode: "cli", SrcGuardian: s.drvID, MsgID: 1, Command: "ping",
	})
	if err != nil {
		return err
	}
	return p.probeUDP(pkt)
}

func (s *echoSystem) finish() error { return nil }

func (s *echoSystem) close() { s.w.Close() }

// addTransport adds a transport's packet accounting to c.
func addTransport(c *counters, tr transport.Transport) {
	st := tr.Stats()
	c.packets += st.Sent
	c.bytes += st.BytesSent
	for _, cs := range st.Conns {
		c.reconnects += cs.Reconnects
	}
}

// addWorld adds a world's message accounting to c.
func addWorld(c *counters, w *guardian.World) {
	st := w.Stats()
	c.msgsSent += st.MessagesSent.Load()
	c.delivered += st.MessagesDelivered.Load()
	c.discards += st.DiscardNoNode.Load() + st.DiscardNoGuardian.Load() + st.DiscardNoPort.Load() +
		st.DiscardPortFull.Load() + st.DiscardBadType.Load() + st.DiscardBadFrame.Load()
}
