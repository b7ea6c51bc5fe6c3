package guardian

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/xrep"
)

// udpWorld is a world on one default-configured UDP transport with the
// named nodes bound to the given "host:port" addresses.
func udpWorld(t *testing.T, peers map[transport.Addr]string) *World {
	t.Helper()
	u, err := transport.NewUDP(transport.UDPConfig{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(Config{Transport: u})
	t.Cleanup(func() { w.Close() })
	return w
}

// TestUDPCarriesMidSizeMessages round-trips strings from under one
// datagram up to near the UDP frame ceiling between two nodes of a default
// UDP world: the transport cuts each frame to its own MTU, so none of them
// is lost for being larger than a datagram.
func TestUDPCarriesMidSizeMessages(t *testing.T) {
	w := udpWorld(t, map[transport.Addr]string{"alpha": "127.0.0.1:0", "beta": "127.0.0.1:0"})
	registerEcho(t, w)
	created, err := w.MustAddNode("alpha").Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := w.MustAddNode("beta").NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	for _, size := range []int{1_000, 1_400, 4_000, 15_000, 30_000, 60_000} {
		payload := strings.Repeat("m", size)
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", payload); err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		m, st := drv.Receive(5*time.Second, reply)
		if st != RecvOK {
			t.Fatalf("%d-byte echo: status %v (transport %+v)", size, st, w.Transport().Stats())
		}
		if got := m.Str(0); got != payload {
			t.Fatalf("%d-byte echo came back as %d bytes", size, len(got))
		}
	}
}

// TestUDPRestartedSenderNotTakenForDuplicate runs two incarnations of a
// client, one after the other, on the same UDP address. The server
// remembers delivered messages by (source address, message id) for
// tens of seconds; the second incarnation's messages must not be thrown
// away as repeats of the first's.
func TestUDPRestartedSenderNotTakenForDuplicate(t *testing.T) {
	srvW := udpWorld(t, map[transport.Addr]string{"srv": "127.0.0.1:0"})
	seen := make(chan int64, 64)
	srvW.MustRegister(&GuardianDef{
		TypeName:     "collector",
		Provides:     []*PortType{NewPortType("c").Msg("data", xrep.KindInt)},
		PortCapacity: 64,
		Init: func(ctx *Ctx) {
			NewReceiver(ctx.Ports[0]).
				When("data", func(pr *Process, m *Message) { seen <- m.Int(0) }).
				WhenTimeout(time.Minute, func(*Process) {}).
				Loop(ctx.Proc, nil)
		},
	})
	created, err := srvW.MustAddNode("srv").Bootstrap("collector")
	if err != nil {
		t.Fatal(err)
	}
	srvAddr := srvW.Transport().(*transport.UDP).LocalAddr("srv")

	// Reserve a client port, then bind each incarnation to it.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cliAddr := probe.LocalAddr().String()
	probe.Close()

	const perLife = 5
	for life := 0; life < 2; life++ {
		u, err := transport.NewUDP(transport.UDPConfig{
			Peers: map[transport.Addr]string{"cli": cliAddr, "srv": srvAddr},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorld(Config{Transport: u})
		_, drv, err := w.MustAddNode("cli").NewDriver("d")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perLife; i++ {
			if err := drv.Send(created.Ports[0], "data", life*perLife+i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < perLife; i++ {
			select {
			case <-seen:
			case <-time.After(2 * time.Second):
				w.Close()
				t.Fatalf("incarnation %d: %d of %d messages delivered", life+1, i, perLife)
			}
		}
		w.Close()
	}
}

// roundTripper is one guardian round trip — a ping from a driver, the
// echo's reply — for allocation counting.
func roundTripper(t *testing.T, w *World, srvNode, cliNode string) func() {
	t.Helper()
	registerEcho(t, w)
	created, err := w.MustAddNode(srvNode).Bootstrap("echo")
	if err != nil {
		t.Fatal(err)
	}
	_, drv, err := w.MustAddNode(cliNode).NewDriver("d")
	if err != nil {
		t.Fatal(err)
	}
	reply := drv.Guardian().MustNewPort(echoReplyType, 8)
	payload := strings.Repeat("p", 64)
	return func() {
		if err := drv.SendReplyTo(created.Ports[0], reply.Name(), "echo", payload); err != nil {
			panic(err)
		}
		if _, st := drv.Receive(5*time.Second, reply); st != RecvOK {
			panic(fmt.Sprintf("round trip: status %v", st))
		}
	}
}

// checkRoundTripAllocs fails when a warmed-up round trip allocates more
// than ceiling objects on average — all allocations in the process
// during the trip, on every goroutine the message crosses.
func checkRoundTripAllocs(t *testing.T, rt func(), ceiling float64) {
	t.Helper()
	for i := 0; i < 200; i++ {
		rt()
	}
	if got := testing.AllocsPerRun(500, rt); got > ceiling {
		t.Fatalf("guardian round trip allocates %.1f objects, ceiling %.0f", got, ceiling)
	} else {
		t.Logf("guardian round trip allocates %.1f objects (ceiling %.0f)", got, ceiling)
	}
}

// The ceilings are the counts measured once the message path stopped
// allocating per packet (it took 76 on the simulator and 92 on UDP while
// guardians still cut their own packets); a regression past them fails
// tier-1 without a benchmark run.

func TestRoundTripAllocsSim(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation guard: needs a full, uninstrumented run")
	}
	w := NewWorld(Config{})
	checkRoundTripAllocs(t, roundTripper(t, w, "alpha", "beta"), roundTripAllocsSim)
}

func TestRoundTripAllocsUDP(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation guard: needs a full, uninstrumented run")
	}
	w := udpWorld(t, map[transport.Addr]string{"alpha": "127.0.0.1:0", "beta": "127.0.0.1:0"})
	checkRoundTripAllocs(t, roundTripper(t, w, "alpha", "beta"), roundTripAllocsUDP)
}

const (
	roundTripAllocsSim = 25
	roundTripAllocsUDP = 21
)
