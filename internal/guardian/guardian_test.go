package guardian

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/xrep"
)

// newWorld builds a two-node world with instant, reliable delivery.
func newWorld(t *testing.T, cfg Config) (*World, *Node, *Node) {
	t.Helper()
	w := NewWorld(cfg)
	a := w.MustAddNode("alpha")
	b := w.MustAddNode("beta")
	return w, a, b
}

// echoType is a simple service port: echo(string) replies (echoed(string)).
var echoType = NewPortType("echo_port").
	Msg("echo", xrep.KindString).
	Replies("echo", "echoed").
	Msg("shutdown")

// echoReplyType receives echo responses.
var echoReplyType = NewPortType("echo_reply_port").
	Msg("echoed", xrep.KindString)

// echoDef is a guardian that echoes requests back to their reply port.
var echoDef = &GuardianDef{
	TypeName: "echo",
	Provides: []*PortType{echoType},
	Init: func(ctx *Ctx) {
		//lint:allow recvhygiene deterministic in-memory test world; the test deadline bounds any hang
		NewReceiver(ctx.Ports[0]).
			When("echo", func(pr *Process, m *Message) {
				if !m.ReplyTo.IsZero() {
					_ = pr.Send(m.ReplyTo, "echoed", m.Str(0))
				}
			}).
			When("shutdown", func(pr *Process, m *Message) {
				ctx.G.SelfDestruct()
			}).
			Loop(ctx.Proc, nil)
	},
}

func registerEcho(t *testing.T, w *World) {
	t.Helper()
	if err := w.Register(echoDef); err != nil && err.Error() == "" {
		t.Fatal(err)
	}
}

func TestSendReceiveRoundTrip(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	echoPort := created.Ports[0]

	_, drv, err := b.NewDriver("clerk")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	if err := drv.SendReplyTo(echoPort, reply.Name(), "echo", "hello"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK {
		t.Fatalf("receive status = %v", st)
	}
	if m.Command != "echoed" || m.Str(0) != "hello" {
		t.Fatalf("got %s(%v)", m.Command, m.Args)
	}
	if m.SrcNode != "alpha" {
		t.Fatalf("reply SrcNode = %q, want alpha", m.SrcNode)
	}
}

func TestIntraNodeMessaging(t *testing.T) {
	w, a, _ := newWorld(t, Config{Net: netsim.Config{BaseLatency: time.Hour}})
	registerEcho(t, w)
	// With an hour of network latency, only the local bypass can answer
	// quickly: intra-node communication must not touch the network.
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := a.NewDriver("local")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", "fast"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK || m.Str(0) != "fast" {
		t.Fatalf("intra-node echo: status %v", st)
	}
	if sent := w.Net().Stats().Sent; sent != 0 {
		t.Fatalf("intra-node message used the network (%d packets)", sent)
	}
}

func TestSendEncodeErrorTerminatesSend(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	_, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	to := xrep.PortName{Node: "beta", Guardian: 5, Port: 1}
	//lint:allow transmissible deliberate violation: the test asserts the runtime rejects a channel in a message
	if err := drv.Send(to, "cmd", make(chan int)); err == nil {
		t.Fatal("send of untransmittable value succeeded")
	}
}

func TestSendEnforcesSystemLimits(t *testing.T) {
	w := NewWorld(Config{Limits: xrep.Paper24BitLimits})
	a := w.MustAddNode("a")
	_, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	to := xrep.PortName{Node: "a", Guardian: 99, Port: 1}
	if err := drv.Send(to, "cmd", 1<<30); err == nil {
		t.Fatal("int wider than the 24-bit system standard left the node")
	}
	if err := drv.Send(to, "cmd", 1<<20); err != nil {
		t.Fatalf("legal 24-bit int rejected: %v", err)
	}
}

func TestSendCheckedCatchesMismatchAtSender(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong command.
	if err := drv.SendChecked(echoType, created.Ports[0], "nonsense"); err == nil {
		t.Fatal("checked send of undeclared command succeeded")
	}
	// Wrong arg kind.
	if err := drv.SendChecked(echoType, created.Ports[0], "echo", 42); err == nil {
		t.Fatal("checked send with wrong arg kind succeeded")
	}
	// Wrong arity.
	if err := drv.SendChecked(echoType, created.Ports[0], "echo", "a", "b"); err == nil {
		t.Fatal("checked send with wrong arity succeeded")
	}
	// Correct.
	if err := drv.SendChecked(echoType, created.Ports[0], "echo", "ok"); err != nil {
		t.Fatalf("legal checked send failed: %v", err)
	}
}

func TestReceiverTypeMismatchDiscardedWithFailure(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	// Unchecked send with a bad argument kind: the receiving node rejects
	// it and reports a failure to the reply port.
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", 99); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK {
		t.Fatalf("status %v, want failure message", st)
	}
	if !m.IsFailure() {
		t.Fatalf("got %s, want failure", m.Command)
	}
	if w.Stats().DiscardBadType.Load() != 1 {
		t.Fatalf("DiscardBadType = %d", w.Stats().DiscardBadType.Load())
	}
}

func TestFailureWhenGuardianDoesNotExist(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	_ = a
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	ghost := xrep.PortName{Node: "alpha", Guardian: 424242, Port: 7}
	if err := drv.SendReplyTo(ghost, reply.Name(), "echoed", "x"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK || !m.IsFailure() {
		t.Fatalf("want failure message, got %v/%v", st, m)
	}
	if m.FailureText() == "" {
		t.Fatal("failure text empty")
	}
	if w.Stats().DiscardNoGuardian.Load() != 1 {
		t.Fatalf("DiscardNoGuardian = %d", w.Stats().DiscardNoGuardian.Load())
	}
}

func TestFailureWhenPortDoesNotExist(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	bad := created.Ports[0]
	bad.Port = 999
	if err := drv.SendReplyTo(bad, reply.Name(), "echo", "x"); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(2*time.Second, reply)
	if st != RecvOK || !m.IsFailure() {
		t.Fatalf("want failure, got %v", st)
	}
	if w.Stats().DiscardNoPort.Load() != 1 {
		t.Fatalf("DiscardNoPort = %d", w.Stats().DiscardNoPort.Load())
	}
}

func TestNoFailureWithoutReplyTo(t *testing.T) {
	w, _, b := newWorld(t, Config{})
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	ghost := xrep.PortName{Node: "alpha", Guardian: 424242, Port: 7}
	if err := drv.Send(ghost, "echoed", "x"); err != nil {
		t.Fatal(err)
	}
	w.Quiesce()
	time.Sleep(10 * time.Millisecond)
	if got := w.Stats().FailuresSent.Load(); got != 0 {
		t.Fatalf("FailuresSent = %d for replyless message", got)
	}
}

func TestPortFullDiscardsWithFailure(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	// sinkDef never receives, so its port fills up.
	sinkType := NewPortType("sink_port").Msg("drop", xrep.KindInt)
	w.MustRegister(&GuardianDef{
		TypeName:     "sink",
		Provides:     []*PortType{sinkType},
		PortCapacity: 4,
		Init:         func(ctx *Ctx) { <-ctx.G.Killed() },
	})
	created, err := a.Bootstrap("sink")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 32)
	for i := 0; i < 10; i++ {
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "drop", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	time.Sleep(20 * time.Millisecond)
	st := w.Stats()
	if st.DiscardPortFull.Load() != 6 {
		t.Fatalf("DiscardPortFull = %d, want 6 (cap 4 of 10)", st.DiscardPortFull.Load())
	}
	// Each discard produced a failure to the reply port.
	failures := 0
	for {
		m, s := drv.Receive(100*time.Millisecond, reply)
		if s != RecvOK {
			break
		}
		if m.IsFailure() {
			failures++
		}
	}
	if failures != 6 {
		t.Fatalf("received %d failure replies, want 6", failures)
	}
}

func TestReceiveTimeout(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	_, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := drv.Guardian().MustNewPort(echoReplyType, 8)
	start := time.Now()
	m, st := drv.Receive(30*time.Millisecond, p)
	if st != RecvTimeout || m != nil {
		t.Fatalf("got %v/%v, want timeout", st, m)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("timed out after only %v", el)
	}
}

func TestReceivePollWithZeroTimeout(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	_, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := drv.Guardian().MustNewPort(echoReplyType, 8)
	if _, st := drv.Receive(0, p); st != RecvTimeout {
		t.Fatalf("poll on empty port = %v", st)
	}
}

func TestReceivePortPriority(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	hi := g.MustNewPort(NewPortType("hi").Msg("h", xrep.KindInt), 8)
	lo := g.MustNewPort(NewPortType("lo").Msg("l", xrep.KindInt), 8)
	// Queue on both; the first-listed port must win.
	if err := drv.Send(lo.Name(), "l", 1); err != nil {
		t.Fatal(err)
	}
	if err := drv.Send(hi.Name(), "h", 2); err != nil {
		t.Fatal(err)
	}
	// Local sends are async; wait for both to arrive.
	deadline := time.Now().Add(time.Second)
	for (hi.Len() == 0 || lo.Len() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m, st := drv.Receive(time.Second, hi, lo)
	if st != RecvOK || m.Command != "h" {
		t.Fatalf("priority receive got %v, want h from hi port", m)
	}
}

func TestReceiveOnForeignPortPanics(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g1, drv1, err := a.NewDriver("d1")
	if err != nil {
		t.Fatal(err)
	}
	_ = g1
	g2, _, err := a.NewDriver("d2")
	if err != nil {
		t.Fatal(err)
	}
	foreign := g2.MustNewPort(echoReplyType, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("receive on another guardian's port did not panic")
		}
	}()
	drv1.Receive(time.Millisecond, foreign)
}

func TestMessagesBetweenNodesUseNetwork(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", "net"); err != nil {
		t.Fatal(err)
	}
	if m, st := drv.Receive(2*time.Second, reply); st != RecvOK || m.Str(0) != "net" {
		t.Fatalf("echo over network failed: %v", st)
	}
	if w.Net().Stats().Sent < 2 {
		t.Fatal("cross-node messages did not traverse the network")
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	w, a, b := newWorld(t, Config{Net: netsim.Config{MTU: 512}})
	registerEcho(t, w)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	big := string(make([]byte, 20_000))
	if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", big); err != nil {
		t.Fatal(err)
	}
	m, st := drv.Receive(5*time.Second, reply)
	if st != RecvOK {
		t.Fatalf("status %v", st)
	}
	if len(m.Str(0)) != 20_000 {
		t.Fatalf("echoed %d bytes, want 20000", len(m.Str(0)))
	}
	if w.Net().Stats().Sent < 40 {
		t.Fatalf("expected ≥40 packets for fragmented round trip, got %d", w.Net().Stats().Sent)
	}
}

func TestGuardianStatePrivate(t *testing.T) {
	// Port names are the only global names: a guardian's objects are
	// reachable from outside only via messages. This test verifies the
	// runtime refuses to encode raw Go pointers/structs in messages, which
	// is how the "no addresses in messages" restriction manifests here.
	_, a, _ := newWorld(t, Config{})
	_, drv, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	type obj struct{ n int }
	o := &obj{1}
	to := xrep.PortName{Node: "alpha", Guardian: 3, Port: 1}
	//lint:allow transmissible deliberate violation: the test asserts the runtime rejects a pointer in a message
	if err := drv.Send(to, "x", o); err == nil {
		t.Fatal("raw object address crossed a guardian boundary")
	}
}

func TestSelfDestruct(t *testing.T) {
	w, a, b := newWorld(t, Config{})
	registerEcho(t, w)
	created, err := a.Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := b.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.Send(created.Ports[0], "shutdown"); err != nil {
		t.Fatal(err)
	}
	// After self-destruct, messages to the old port draw a failure.
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", "anyone?"); err != nil {
			t.Fatal(err)
		}
		m, st := drv.Receive(time.Second, reply)
		if st == RecvOK && m.IsFailure() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("self-destructed guardian still answering")
		}
	}
}

func TestCreateLocalOnly(t *testing.T) {
	w, a, _ := newWorld(t, Config{})
	registerEcho(t, w)
	g, _, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	created, err := g.Create("echo")
	if err != nil {
		t.Fatal(err)
	}
	// The new guardian must live at the creator's node.
	if created.Ports[0].Node != "alpha" {
		t.Fatalf("guardian created at %q, want alpha", created.Ports[0].Node)
	}
}

func TestCreateUnknownDef(t *testing.T) {
	_, a, _ := newWorld(t, Config{})
	g, _, err := a.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Create("no-such-def"); err == nil {
		t.Fatal("creation from unknown definition succeeded")
	}
}

func TestWorldRegisterValidation(t *testing.T) {
	w := NewWorld(Config{})
	if err := w.Register(&GuardianDef{}); err == nil {
		t.Fatal("nameless definition accepted")
	}
	if err := w.Register(&GuardianDef{TypeName: "x"}); err == nil {
		t.Fatal("Init-less definition accepted")
	}
	def := &GuardianDef{TypeName: "x", Init: func(*Ctx) {}}
	if err := w.Register(def); err != nil {
		t.Fatal(err)
	}
	if err := w.Register(def); err == nil {
		t.Fatal("duplicate definition accepted")
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	w := NewWorld(Config{})
	w.MustAddNode("n")
	if _, err := w.AddNode("n"); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := w.Node("n"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Node("ghost"); err == nil {
		t.Fatal("lookup of unknown node succeeded")
	}
	nodes := w.Nodes()
	if len(nodes) != 1 || nodes[0] != "n" {
		t.Fatalf("Nodes() = %v", nodes)
	}
}
