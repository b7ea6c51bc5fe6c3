package guardian

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

// deployCollector builds a world whose "srv" node hosts a guardian that
// counts arriving data(Int) messages on a channel.
func deployCollector(t *testing.T, cfg Config) (*World, xrep.PortName, chan int64) {
	t.Helper()
	w := NewWorld(cfg)
	seen := make(chan int64, 4096)
	w.MustRegister(&GuardianDef{
		TypeName:     "collector",
		Provides:     []*PortType{NewPortType("c").Msg("data", xrep.KindInt)},
		PortCapacity: 4096,
		Init: func(ctx *Ctx) {
			//lint:allow recvhygiene deterministic in-memory test world; the test deadline bounds any hang
			NewReceiver(ctx.Ports[0]).
				When("data", func(pr *Process, m *Message) { seen <- m.Int(0) }).
				Loop(ctx.Proc, nil)
		},
	})
	srv := w.MustAddNode("srv")
	created, err := srv.Bootstrap("collector")
	if err != nil {
		t.Fatal(err)
	}
	return w, created.Ports[0], seen
}

func drain(seen chan int64, settle time.Duration) []int64 {
	var out []int64
	for {
		select {
		case v := <-seen:
			out = append(out, v)
		case <-time.After(settle):
			return out
		}
	}
}

func TestCorruptedMessagesNeverReachPorts(t *testing.T) {
	// Every network corruption must be caught by the wire checksums: the
	// message is thrown away (best-effort loss), never delivered mangled.
	w, port, seen := deployCollector(t, Config{
		Net: netsim.Config{Seed: 9, CorruptRate: 0.3},
	})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	const total = 300
	for i := 0; i < total; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	got := drain(seen, 50*time.Millisecond)
	if len(got) == total {
		t.Fatal("no corruption observed; fault injection inert")
	}
	// Every delivered value must be one that was actually sent, intact.
	for _, v := range got {
		if v < 0 || v >= total {
			t.Fatalf("mangled value %d delivered", v)
		}
	}
	st := w.Stats()
	corrupted := w.Net().Stats().Corrupted
	if st.DiscardBadFrame.Load() != corrupted {
		t.Fatalf("BadFrame discards (%d) != corrupted packets (%d)",
			st.DiscardBadFrame.Load(), corrupted)
	}
	if int64(len(got))+corrupted != total {
		t.Fatalf("delivered(%d) + corrupted(%d) != sent(%d)", len(got), corrupted, total)
	}
}

func TestDuplicatedMessagesDeliveredOnce(t *testing.T) {
	// The network duplicates packets; the reassembly layer's completed-id
	// memory keeps the message from being delivered twice.
	w, port, seen := deployCollector(t, Config{
		Net: netsim.Config{Seed: 4, DupRate: 1.0},
	})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	for i := 0; i < total; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	got := drain(seen, 50*time.Millisecond)
	if len(got) != total {
		t.Fatalf("delivered %d messages with DupRate=1, want exactly %d", len(got), total)
	}
	counts := map[int64]int{}
	for _, v := range got {
		counts[v]++
		if counts[v] > 1 {
			t.Fatalf("message %d delivered twice", v)
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	w, port, seen := deployCollector(t, Config{})
	cli := w.MustAddNode("cli")
	_, drv, err := cli.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	w.Net().Partition([]netsim.Addr{"srv"}, []netsim.Addr{"cli"})
	for i := 0; i < 5; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	if got := drain(seen, 30*time.Millisecond); len(got) != 0 {
		t.Fatalf("%d messages crossed the partition", len(got))
	}
	w.Net().Heal()
	for i := 5; i < 10; i++ {
		if err := drv.Send(port, "data", i); err != nil {
			t.Fatal(err)
		}
	}
	w.Quiesce()
	if got := drain(seen, 50*time.Millisecond); len(got) != 5 {
		t.Fatalf("after heal delivered %d, want 5 (partitioned messages stay lost)", len(got))
	}
}

func TestReceiveTimeoutOnSimulatedClock(t *testing.T) {
	// Timeout semantics are exact under the simulated clock: the arm
	// fires at the deadline, not a nanosecond of wall time earlier.
	clock := vtime.NewSim(time.Unix(0, 0))
	w := NewWorld(Config{Clock: clock})
	n := w.MustAddNode("n")
	g, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("t").Msg("x"), 4)
	done := make(chan RecvStatus, 1)
	go func() {
		_, st := drv.Receive(10*time.Second, p)
		done <- st
	}()
	for clock.PendingTimers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	clock.Advance(9 * time.Second)
	select {
	case st := <-done:
		t.Fatalf("receive ended with %v before its simulated deadline", st)
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(time.Second)
	select {
	case st := <-done:
		if st != RecvTimeout {
			t.Fatalf("status %v, want timeout", st)
		}
	case <-time.After(time.Second):
		t.Fatal("receive never timed out after Advance past deadline")
	}
}

func TestReceiveWakesOnArrivalUnderSimClock(t *testing.T) {
	clock := vtime.NewSim(time.Unix(0, 0))
	w := NewWorld(Config{Clock: clock})
	n := w.MustAddNode("n")
	g, drv, err := n.NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	p := g.MustNewPort(NewPortType("t").Msg("x", xrep.KindInt), 4)
	done := make(chan *Message, 1)
	go func() {
		m, _ := drv.Receive(time.Hour, p)
		done <- m
	}()
	for clock.PendingTimers() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Local send: delivery needs no simulated time to pass.
	if err := drv.Send(p.Name(), "x", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if m.Int(0) != 42 {
			t.Fatalf("got %v", m.Args)
		}
	case <-time.After(time.Second):
		t.Fatal("arrival did not wake the receiver under the simulated clock")
	}
}
