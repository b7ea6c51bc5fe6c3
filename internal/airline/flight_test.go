package airline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guardian"
	"repro/internal/vtime"
	"repro/internal/xrep"
)

const testTimeout = 5 * time.Second

// deployOne builds a world with a single region ("hub") holding flights
// 1..n, plus a client node ("clerk-node").
func deployOne(t *testing.T, org string, nFlights int, capacity int64) (*System, *guardian.Node) {
	t.Helper()
	w := guardian.NewWorld(guardian.Config{})
	if err := RegisterDefs(w); err != nil {
		t.Fatal(err)
	}
	flights := make([]int64, nFlights)
	for i := range flights {
		flights[i] = int64(i + 1)
	}
	sys, err := Deploy(w, SystemConfig{
		Regions:  []RegionConfig{{Node: "hub", Flights: flights}},
		UINodes:  []string{"hub"},
		Capacity: capacity,
		Org:      org,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli := w.MustAddNode("clerk-node")
	return sys, cli
}

func TestReserveAndCancelAllOrgs(t *testing.T) {
	for _, org := range []string{OrgSequential, OrgSerializer, OrgMonitor} {
		t.Run(org, func(t *testing.T) {
			sys, cli := deployOne(t, org, 1, 2)
			a, err := NewAgent(cli, "a")
			if err != nil {
				t.Fatal(err)
			}
			port := sys.Directory[1]
			out, err := a.Request(port, "reserve", 1, "alice", "dec-10", testTimeout)
			if err != nil || out != OutcomeOK {
				t.Fatalf("reserve: %v %v", out, err)
			}
			out, err = a.Request(port, "cancel", 1, "alice", "dec-10", testTimeout)
			if err != nil || out != OutcomeCanceled {
				t.Fatalf("cancel: %v %v", out, err)
			}
			out, err = a.Request(port, "cancel", 1, "alice", "dec-10", testTimeout)
			if err != nil || out != OutcomeNotReserved {
				t.Fatalf("re-cancel: %v %v", out, err)
			}
		})
	}
}

func TestReserveIdempotent(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 1, 5)
	a, _ := NewAgent(cli, "a")
	port := sys.Directory[1]
	if out, _ := a.Request(port, "reserve", 1, "bob", "dec-10", testTimeout); out != OutcomeOK {
		t.Fatalf("first reserve: %v", out)
	}
	// "no problems result since they are idempotent (many performances
	// are equivalent to one)".
	for i := 0; i < 3; i++ {
		if out, _ := a.Request(port, "reserve", 1, "bob", "dec-10", testTimeout); out != OutcomePreReserved {
			t.Fatalf("retry %d: %v", i, out)
		}
	}
}

func TestFullFlightWaitlistsAndPromotes(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 1, 2)
	a, _ := NewAgent(cli, "a")
	port := sys.Directory[1]
	for _, p := range []string{"p1", "p2"} {
		if out, _ := a.Request(port, "reserve", 1, p, "dec-10", testTimeout); out != OutcomeOK {
			t.Fatalf("reserve %s: %v", p, out)
		}
	}
	if out, _ := a.Request(port, "reserve", 1, "p3", "dec-10", testTimeout); out != OutcomeWaitList {
		t.Fatalf("overflow reserve: %v", out)
	}
	// Waitlisting is idempotent too.
	if out, _ := a.Request(port, "reserve", 1, "p3", "dec-10", testTimeout); out != OutcomeWaitList {
		t.Fatalf("repeat waitlist: %v", out)
	}
	// A cancel promotes p3 into the freed seat.
	if out, _ := a.Request(port, "cancel", 1, "p1", "dec-10", testTimeout); out != OutcomeCanceled {
		t.Fatal("cancel failed")
	}
	if out, _ := a.Request(port, "cancel", 1, "p3", "dec-10", testTimeout); out != OutcomeCanceled {
		t.Fatalf("promoted passenger not reserved: %v", out)
	}
}

func TestDatesIndependent(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 1, 1)
	a, _ := NewAgent(cli, "a")
	port := sys.Directory[1]
	if out, _ := a.Request(port, "reserve", 1, "p1", "dec-10", testTimeout); out != OutcomeOK {
		t.Fatal("reserve dec-10")
	}
	// Same flight, different date: capacity is per date.
	if out, _ := a.Request(port, "reserve", 1, "p2", "dec-11", testTimeout); out != OutcomeOK {
		t.Fatal("reserve dec-11 should have its own capacity")
	}
	if out, _ := a.Request(port, "reserve", 1, "p3", "dec-10", testTimeout); out != OutcomeWaitList {
		t.Fatal("dec-10 should be full")
	}
}

func TestNoSuchFlight(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 1, 2)
	a, _ := NewAgent(cli, "a")
	if out, _ := a.Request(sys.RegionPorts["hub"], "reserve", 99, "p", "dec-10", testTimeout); out != OutcomeNoSuchFlight {
		t.Fatalf("unknown flight: %v", out)
	}
}

func TestCapacityInvariantUnderConcurrency(t *testing.T) {
	// The heart of Figure 1: under every organization, concurrent
	// reservations never oversell a date.
	for _, org := range []string{OrgSequential, OrgSerializer, OrgMonitor} {
		t.Run(org, func(t *testing.T) {
			const capacity = 10
			sys, cli := deployOne(t, org, 1, capacity)
			port := sys.Directory[1]
			const clients = 8
			const perClient = 10
			var wg sync.WaitGroup
			outcomes := make(chan string, clients*perClient)
			for cidx := 0; cidx < clients; cidx++ {
				a, err := NewAgent(cli, fmt.Sprintf("a%d", cidx))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(cidx int, a *Agent) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						pid := fmt.Sprintf("p-%d-%d", cidx, i)
						out, err := a.Request(port, "reserve", 1, pid, "dec-10", testTimeout)
						if err != nil {
							t.Errorf("request: %v", err)
							return
						}
						outcomes <- out
					}
				}(cidx, a)
			}
			wg.Wait()
			close(outcomes)
			ok, wl := 0, 0
			for o := range outcomes {
				switch o {
				case OutcomeOK:
					ok++
				case OutcomeWaitList:
					wl++
				default:
					t.Fatalf("unexpected outcome %q", o)
				}
			}
			if ok != capacity {
				t.Fatalf("org %s: %d seats granted, capacity %d", org, ok, capacity)
			}
			if wl != clients*perClient-capacity {
				t.Fatalf("org %s: %d waitlisted", org, wl)
			}
		})
	}
}

// TestOrganizationsOnSimulatedClock runs the Figure 1 organizations on a
// driven simulated clock, with per-request work long enough that
// concurrent requests for one date queue in the serializer and the
// monitor's key lock. Those hand-offs are counted waits: Drive must carry
// every request to completion — a wait the clock could not see would
// stall it — and capacity must hold as on the wall clock.
func TestOrganizationsOnSimulatedClock(t *testing.T) {
	for _, org := range []string{OrgSequential, OrgSerializer, OrgMonitor} {
		t.Run(org, func(t *testing.T) {
			clock := vtime.NewSim(time.Unix(0, 0))
			w := guardian.NewWorld(guardian.Config{Clock: clock})
			if err := RegisterDefs(w); err != nil {
				t.Fatal(err)
			}
			const capacity = 3
			sys, err := Deploy(w, SystemConfig{
				Regions:    []RegionConfig{{Node: "hub", Flights: []int64{1}}},
				UINodes:    []string{"hub"},
				Capacity:   capacity,
				Org:        org,
				WorkCostUS: 2000,
			})
			if err != nil {
				t.Fatal(err)
			}
			cli := w.MustAddNode("clerk-node")
			const clients = 4
			var mu sync.Mutex
			granted, waitlisted := 0, 0
			var finished atomic.Int32
			for cidx := 0; cidx < clients; cidx++ {
				a, err := NewAgent(cli, fmt.Sprintf("a%d", cidx))
				if err != nil {
					t.Fatal(err)
				}
				clock.Go(func() {
					defer finished.Add(1)
					for i := 0; i < 3; i++ {
						out, err := a.Request(sys.Directory[1], "reserve", 1, fmt.Sprintf("p-%d-%d", cidx, i), "dec-10", time.Second)
						if err != nil {
							t.Errorf("request: %v", err)
							return
						}
						mu.Lock()
						switch out {
						case OutcomeOK:
							granted++
						case OutcomeWaitList:
							waitlisted++
						default:
							t.Errorf("unexpected outcome %q", out)
						}
						mu.Unlock()
					}
				})
			}
			clock.Drive(func() bool { return finished.Load() == clients })
			if granted != capacity || waitlisted != clients*3-capacity {
				t.Fatalf("org %s: %d granted, %d waitlisted; want %d and %d", org, granted, waitlisted, capacity, clients*3-capacity)
			}
		})
	}
}

func TestListPassengersViaRegionRequiresGrant(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 1, 5)
	a, _ := NewAgent(cli, "manager")
	region := sys.RegionPorts["hub"]
	if out, _ := a.Request(region, "reserve", 1, "carol", "dec-10", testTimeout); out != OutcomeOK {
		t.Fatal("reserve")
	}
	// Ungranted: denied.
	_, outcome, err := a.ListPassengers(region, 1, "dec-10", testTimeout)
	if err != nil || outcome != OutcomeNotPermitted {
		t.Fatalf("ungranted list: %v %v", outcome, err)
	}
	// Grants may only come from the manager's own node.
	if m, err := a.Admin(region, "grant_list_access", testTimeout,
		a.Principal().Node, int64(a.Principal().Guardian)); err != nil || m.Command != OutcomeNotPermitted {
		t.Fatalf("remote grant accepted: %v %v", m, err)
	}
	// An owner-side agent at the hub can grant.
	hub, err := sys.World.Node("hub")
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := NewAgent(hub, "owner")
	if m, err := owner.Admin(region, "grant_list_access", testTimeout,
		a.Principal().Node, int64(a.Principal().Guardian)); err != nil || m.Command != "granted" {
		t.Fatalf("owner grant: %v %v", m, err)
	}
	names, outcome, err := a.ListPassengers(region, 1, "dec-10", testTimeout)
	if err != nil || outcome != "info" {
		t.Fatalf("granted list: %v %v", outcome, err)
	}
	if len(names) != 1 || names[0] != "carol" {
		t.Fatalf("passengers = %v", names)
	}
}

func TestAdminAddDeleteFlight(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 1, 3)
	a, _ := NewAgent(cli, "a")
	region := sys.RegionPorts["hub"]
	if m, err := a.Admin(region, "add_flight", testTimeout, int64(7), int64(3)); err != nil || m.Command != "flight_added" {
		t.Fatalf("add_flight: %v %v", m, err)
	}
	if m, _ := a.Admin(region, "add_flight", testTimeout, int64(7), int64(3)); m.Command != "flight_exists" {
		t.Fatalf("duplicate add: %v", m.Command)
	}
	if out, _ := a.Request(region, "reserve", 7, "dan", "dec-12", testTimeout); out != OutcomeOK {
		t.Fatalf("reserve on added flight: %v", out)
	}
	if m, _ := a.Admin(region, "delete_flight", testTimeout, int64(7)); m.Command != "flight_deleted" {
		t.Fatalf("delete: %v", m.Command)
	}
	if out, _ := a.Request(region, "reserve", 7, "erin", "dec-12", testTimeout); out != OutcomeNoSuchFlight {
		t.Fatalf("reserve on deleted flight: %v", out)
	}
	if m, _ := a.Admin(region, "delete_flight", testTimeout, int64(7)); m.Command != OutcomeNoSuchFlight {
		t.Fatalf("re-delete: %v", m.Command)
	}
}

func TestUsageStatistics(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 2, 5)
	a, _ := NewAgent(cli, "a")
	region := sys.RegionPorts["hub"]
	for i := 0; i < 3; i++ {
		if out, _ := a.Request(region, "reserve", 1, fmt.Sprintf("p%d", i), "dec-10", testTimeout); out != OutcomeOK {
			t.Fatal("reserve")
		}
	}
	if out, _ := a.Request(region, "reserve", 2, "q", "dec-11", testTimeout); out != OutcomeOK {
		t.Fatal("reserve flight 2")
	}
	m, err := a.Admin(region, "usage", testTimeout)
	if err != nil || m.Command != "usage_info" {
		t.Fatalf("usage: %v %v", m, err)
	}
	got := map[int64]int64{}
	for _, e := range m.Args[0].(xrep.Seq) {
		pair := e.(xrep.Seq)
		got[int64(pair[0].(xrep.Int))] = int64(pair[1].(xrep.Int))
	}
	if got[1] != 3 || got[2] != 1 {
		t.Fatalf("usage = %v", got)
	}
}

func TestFlightRecoversSeatDataAfterCrash(t *testing.T) {
	for _, org := range []string{OrgSequential, OrgSerializer, OrgMonitor} {
		t.Run(org, func(t *testing.T) {
			sys, cli := deployOne(t, org, 1, 3)
			a, _ := NewAgent(cli, "a")
			port := sys.Directory[1]
			for _, p := range []string{"p1", "p2", "p3", "p4"} {
				if _, err := a.Request(port, "reserve", 1, p, "dec-10", testTimeout); err != nil {
					t.Fatal(err)
				}
			}
			if out, _ := a.Request(port, "cancel", 1, "p2", "dec-10", testTimeout); out != OutcomeCanceled {
				t.Fatal("cancel")
			}
			hub, _ := sys.World.Node("hub")
			hub.Crash()
			if err := hub.Restart(); err != nil {
				t.Fatal(err)
			}
			// After recovery: p1, p3 reserved, p4 promoted from waitlist,
			// p2 canceled. Verify through the recovered guardian.
			if out, _ := a.Request(port, "reserve", 1, "p1", "dec-10", testTimeout); out != OutcomePreReserved {
				t.Fatalf("p1 after recovery: %v (permanence violated)", out)
			}
			if out, _ := a.Request(port, "reserve", 1, "p4", "dec-10", testTimeout); out != OutcomePreReserved {
				t.Fatalf("p4 after recovery: %v (promotion lost)", out)
			}
			if out, _ := a.Request(port, "cancel", 1, "p2", "dec-10", testTimeout); out != OutcomeNotReserved {
				t.Fatalf("p2 after recovery: %v (cancel lost)", out)
			}
		})
	}
}

func TestRegionalManagerRecoversDirectory(t *testing.T) {
	sys, cli := deployOne(t, OrgSequential, 3, 2)
	a, _ := NewAgent(cli, "a")
	region := sys.RegionPorts["hub"]
	if out, _ := a.Request(region, "reserve", 2, "zoe", "dec-10", testTimeout); out != OutcomeOK {
		t.Fatal("reserve before crash")
	}
	hub, _ := sys.World.Node("hub")
	hub.Crash()
	if err := hub.Restart(); err != nil {
		t.Fatal(err)
	}
	// The regional manager's port name is stable and its rebuilt directory
	// still routes to the recovered flight guardians.
	out, err := a.Request(region, "reserve", 2, "zoe", "dec-10", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if out != OutcomePreReserved {
		t.Fatalf("post-recovery reserve = %v, want pre_reserved", out)
	}
}

func TestReplyBypassesRegionalManager(t *testing.T) {
	// With the paper's design the reply comes straight from the flight
	// guardian: its SrcGuardian differs from the regional manager's id.
	sys, cli := deployOne(t, OrgSequential, 1, 2)
	a, _ := NewAgent(cli, "a")
	region := sys.RegionPorts["hub"]
	if err := a.proc.SendReplyTo(region, a.reply.Name(), "reserve", int64(1), "pat", "dec-10"); err != nil {
		t.Fatal(err)
	}
	m, st := a.proc.Receive(testTimeout, a.reply)
	if st != guardian.RecvOK {
		t.Fatal(st)
	}
	if m.SrcGuardian == sys.RegionGuardians["hub"] {
		t.Fatal("reply relayed through the regional manager; want direct from flight guardian")
	}
}

func TestRelayAblationRoutesThroughManager(t *testing.T) {
	w := guardian.NewWorld(guardian.Config{})
	if err := RegisterDefs(w); err != nil {
		t.Fatal(err)
	}
	sys, err := Deploy(w, SystemConfig{
		Regions:      []RegionConfig{{Node: "hub", Flights: []int64{1}}},
		Capacity:     2,
		Org:          OrgSequential,
		RelayReplies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli := w.MustAddNode("cli")
	a, _ := NewAgent(cli, "a")
	if err := a.proc.SendReplyTo(sys.RegionPorts["hub"], a.reply.Name(), "reserve", int64(1), "pat", "dec-10"); err != nil {
		t.Fatal(err)
	}
	m, st := a.proc.Receive(testTimeout, a.reply)
	if st != guardian.RecvOK {
		t.Fatal(st)
	}
	if m.Command != OutcomeOK {
		t.Fatalf("outcome %v", m.Command)
	}
	if m.SrcGuardian != sys.RegionGuardians["hub"] {
		t.Fatal("relay ablation: reply did not come from the regional manager")
	}
}
