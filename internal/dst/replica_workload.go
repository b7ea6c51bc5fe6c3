package dst

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/nameserv"
	"repro/internal/replica"
	"repro/internal/sendprim"
	"repro/internal/stable"
	"repro/internal/xrep"
)

// The replica workload's node set: a three-member quorum group (m1 the
// initial primary) plus the shared clients node, which also hosts the
// name service — the one piece of the world that must outlive any member.
var replMembers = []string{"m1", "m2", "m3"}

// replGroup is the group name; it doubles as the shared rebind key under
// which the service name is registered.
const (
	replGroup   = "dst-bank"
	replService = "bank/main"
	// replHeartbeat is deliberately small against the 2 s horizon so
	// failure detection (heartbeat × (threshold+1) ≈ 60 ms) and the
	// election resolve well inside a kill or isolation window.
	replHeartbeat = 20 * time.Millisecond
	replThreshold = 2
)

// bankReplicaWorkload is the bank workload rebuilt on the replication
// layer: the branch guardian lives on the current leader of a
// three-member quorum group, every client call goes through the
// at-most-once port resolved by name, and the caller re-resolves on
// retries — so a permanent kill of the primary (EvKill) is survivable:
// followers elect, the winner re-creates the branch from the shipped log
// and re-binds the service name, and the clients' retries land on it.
//
// The invariants are the single-node bank's, restated for failover:
//
//	conservation:  Σ balances on the LEADER ∈ [ackedDeposits−issuedWd,
//	               issuedDeposits−ackedWd] — an acknowledged effect
//	               required a quorum, so it must survive the primary's
//	               permanent death; a double-applied retry would push the
//	               total past the upper bound.
//	exactly-once:  exact expected balances for clients whose every call
//	               was acked (the dedup table rode the replicated log).
//	replication:   every live, undiverged member converges to the
//	               leader's durable position.
//	recovery:      the leader's state equals a pure replay of its log.
type bankReplicaWorkload struct {
	opts    Options
	w       *guardian.World
	met     *amo.Metrics
	ledgers []clientLedger
	nsPort  xrep.PortName

	storesMu sync.Mutex
	stores   map[string]*replica.Store

	mu           sync.Mutex
	issuedDepSum int64
	ackedDepSum  int64
	issuedWdSum  int64
	ackedWdSum   int64
	issuedAmo    int64
	ackedOKAmo   int64
	opsIssued    int64
	opsAcked     int64
	opsFailed    int64
}

func newBankReplicaWorkload(opts Options) *bankReplicaWorkload {
	return &bankReplicaWorkload{
		opts:    opts,
		met:     &amo.Metrics{},
		ledgers: make([]clientLedger, opts.Clients),
		stores:  make(map[string]*replica.Store),
		nsPort:  xrep.PortName{Node: clientsNode, Guardian: 2, Port: 1},
	}
}

func (b *bankReplicaWorkload) crashNodes() []string { return replMembers }
func (b *bankReplicaWorkload) allNodes() []string {
	return append(append([]string{}, replMembers...), clientsNode)
}

// killNodes: only the initial primary is kill-eligible, so every schedule
// leaves the two-member quorum {m2, m3} alive to elect past it.
func (b *bankReplicaWorkload) killNodes() []string { return replMembers[:1] }

// wrapStore puts each member's store behind the replication layer; the
// clients node keeps its plain store. Composes under storage faults: the
// replica layer sees the faulted disk, exactly as a deployment would.
func (b *bankReplicaWorkload) wrapStore(node string, inner durable.Store) (durable.Store, error) {
	member := false
	for _, m := range replMembers {
		if m == node {
			member = true
		}
	}
	if !member {
		return inner, nil
	}
	st, err := replica.NewStore(inner, replica.Config{
		Group:       replGroup,
		Self:        node,
		Members:     replMembers,
		Mode:        replica.ModeQuorum,
		Heartbeat:   replHeartbeat,
		Threshold:   replThreshold,
		AppDef:      bank.BranchDefName,
		AppArgs:     branchArgs(b.opts),
		Service:     replService,
		NS:          b.nsPort,
		ServicePort: 1,
	})
	if err != nil {
		return nil, err
	}
	b.storesMu.Lock()
	b.stores[node] = st
	b.storesMu.Unlock()
	return st, nil
}

func (b *bankReplicaWorkload) store(node string) *replica.Store {
	b.storesMu.Lock()
	defer b.storesMu.Unlock()
	return b.stores[node]
}

func (b *bankReplicaWorkload) setup(w *guardian.World) error {
	b.w = w
	w.MustRegister(replica.Def())
	w.MustRegister(bank.BranchDef())
	w.MustRegister(nameserv.Def())

	cl := w.MustAddNode(clientsNode)
	if _, err := cl.Bootstrap(nameserv.DefName); err != nil {
		return err
	}
	// The replicator must be each member's FIRST guardian: its port name
	// {node, 2, 1} is the a-priori address members reach each other at.
	for _, m := range replMembers {
		n := w.MustAddNode(m)
		if _, err := n.Bootstrap(replica.DefName); err != nil {
			return err
		}
	}
	primary, err := w.Node(replMembers[0])
	if err != nil {
		return err
	}
	created, err := primary.Bootstrap(bank.BranchDefName, branchArgs(b.opts)...)
	if err != nil {
		return err
	}
	b.store(replMembers[0]).Adopt(primary, created)
	return nil
}

func (b *bankReplicaWorkload) client(i int, crng *rand.Rand) {
	led := &b.ledgers[i]
	led.acctA, led.acctB = fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
	led.certain = true

	node, err := b.w.Node(clientsNode)
	if err != nil {
		return
	}
	_, pr, err := node.NewDriver(fmt.Sprintf("bank-repl-client-%d", i))
	if err != nil {
		return
	}
	ns, err := nameserv.NewClient(pr, b.nsPort)
	if err != nil {
		return
	}

	// The leader binds the service name once its branch is serving; wait
	// for the first binding, then let the caller's Resolve chase rebinds.
	var svc xrep.PortName
	bound := false
	for try := 0; try < 200; try++ {
		if p, _, err := ns.Lookup(replService, b.opts.AttemptTimeout); err == nil {
			svc, bound = p, true
			break
		}
		pr.Pause(5 * time.Millisecond)
	}
	if !bound {
		led.certain = false
		return
	}

	caller, err := amo.NewCaller(pr, amo.CallerOptions{
		Timeout: b.opts.AttemptTimeout,
		Retries: b.opts.Retries,
		Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
		Seed:    crng.Int63(),
		Metrics: b.met,
		Resolve: func() (xrep.PortName, bool) {
			p, _, err := ns.Lookup(replService, b.opts.AttemptTimeout)
			return p, err == nil
		},
	})
	if err != nil {
		return
	}
	defer caller.Close()

	// Everything — account setup included — goes through the at-most-once
	// port: a retry that crosses a failover must not double-apply, and
	// that is exactly what this workload exists to check.
	open := func(acct string) bool {
		b.note(func() { b.opsIssued++; b.issuedAmo++ })
		rep, err := caller.Call(svc, "open", acct)
		if err != nil || (rep.Command != bank.OutcomeOK && rep.Command != bank.OutcomeExists) {
			b.note(func() { b.opsFailed++ })
			led.certain = false
			return false
		}
		b.note(func() { b.opsAcked++ })
		if rep.Command == bank.OutcomeOK {
			b.note(func() { b.ackedOKAmo++ })
		}
		return true
	}
	if !open(led.acctA) || !open(led.acctB) {
		return
	}
	b.note(func() { b.opsIssued++; b.issuedAmo++; b.issuedDepSum += seedFunds })
	rep, err := caller.Call(svc, "deposit", led.acctA, int64(seedFunds))
	if err != nil || rep.Command != bank.OutcomeOK {
		b.note(func() { b.opsFailed++ })
		led.certain = false
		return
	}
	b.note(func() { b.opsAcked++; b.ackedDepSum += seedFunds; b.ackedOKAmo++ })
	led.funded = true
	led.expA = seedFunds

	for op := 0; op < b.opts.OpsPerClient; op++ {
		pace(pr, crng, b.opts)
		acct, exp := led.acctA, &led.expA
		if crng.Intn(2) == 1 {
			acct, exp = led.acctB, &led.expB
		}
		switch pick := crng.Intn(10); {
		case pick < 4: // deposit
			amt := 1 + crng.Int63n(9)
			b.note(func() { b.opsIssued++; b.issuedAmo++; b.issuedDepSum += amt })
			rep, err := caller.Call(svc, "deposit", acct, amt)
			if err != nil {
				b.note(func() { b.opsFailed++ })
				led.certain = false
				continue
			}
			b.note(func() { b.opsAcked++ })
			if rep.Command == bank.OutcomeOK {
				b.note(func() { b.ackedDepSum += amt; b.ackedOKAmo++ })
				*exp += amt
			}
		case pick < 7: // withdraw
			amt := 1 + crng.Int63n(5)
			b.note(func() { b.opsIssued++; b.issuedAmo++; b.issuedWdSum += amt })
			rep, err := caller.Call(svc, "withdraw", acct, amt)
			if err != nil {
				b.note(func() { b.opsFailed++ })
				led.certain = false
				continue
			}
			b.note(func() { b.opsAcked++ })
			if rep.Command == bank.OutcomeOK {
				b.note(func() { b.ackedWdSum += amt; b.ackedOKAmo++ })
				*exp -= amt
			}
		default: // intra-branch transfer a→b
			amt := 1 + crng.Int63n(7)
			b.note(func() { b.opsIssued++; b.issuedAmo++ })
			rep, err := caller.Call(svc, "transfer", led.acctA, led.acctB, amt)
			if err != nil {
				b.note(func() { b.opsFailed++ })
				led.certain = false
				continue
			}
			b.note(func() { b.opsAcked++ })
			if rep.Command == bank.OutcomeOK {
				b.note(func() { b.ackedOKAmo++ })
				led.expA -= amt
				led.expB += amt
			}
		}
	}
}

func (b *bankReplicaWorkload) note(f func()) {
	b.mu.Lock()
	f()
	b.mu.Unlock()
}

// findLeader returns the live member whose store believes it leads and
// whose branch guardian is serving.
func (b *bankReplicaWorkload) findLeader(w *guardian.World) (string, *replica.Store) {
	for _, m := range replMembers {
		n, err := w.Node(m)
		if err != nil || !n.Alive() {
			continue
		}
		st := b.store(m)
		if st == nil {
			continue
		}
		if _, _, isSelf := st.Leader(); !isSelf {
			continue
		}
		if g := st.AppGuardian(); g == nil || !g.Alive() {
			continue
		}
		return m, st
	}
	return "", nil
}

// replStats folds every member's replication counters into the report.
func (b *bankReplicaWorkload) replStats(rep *Report) {
	var sum replica.Stats
	for _, m := range replMembers {
		st := b.store(m)
		if st == nil {
			continue
		}
		s := st.ReplStats()
		sum.ShippedBatches += s.ShippedBatches
		sum.ShippedRecords += s.ShippedRecords
		sum.AppliedRecords += s.AppliedRecords
		sum.CheckpointsShipped += s.CheckpointsShipped
		sum.FencedStale += s.FencedStale
		sum.ForksDetected += s.ForksDetected
		sum.Heals += s.Heals
		sum.Elections += s.Elections
		sum.Takeovers += s.Takeovers
	}
	rep.Repl = sum
}

func (b *bankReplicaWorkload) check(w *guardian.World, rep *Report, crashed bool) {
	b.mu.Lock()
	rep.OpsIssued, rep.OpsAcked, rep.OpsFailed = b.opsIssued, b.opsAcked, b.opsFailed
	lo := b.ackedDepSum - b.issuedWdSum
	hi := b.issuedDepSum - b.ackedWdSum
	ackedOK, issuedAmo := b.ackedOKAmo, b.issuedAmo
	b.mu.Unlock()
	rep.Retries = b.met.Retries.Load()
	defer b.replStats(rep)

	// Failover liveness: some live member must end up leading with a
	// serving branch — the schedule always leaves a quorum alive.
	var leader string
	var lst *replica.Store
	if !waitUntil(w.Clock(), 3*time.Second, func() bool {
		leader, lst = b.findLeader(w)
		return lst != nil
	}) {
		rep.addViolation("failover", "no live leader serving the branch after the run")
		return
	}
	rep.Leader = leader

	cnode, err := w.Node(clientsNode)
	if err != nil {
		rep.addViolation("failover", "clients node missing: %v", err)
		return
	}
	_, pr, err := cnode.NewDriver("bank-repl-checker")
	if err != nil {
		rep.addViolation("failover", "checker driver: %v", err)
		return
	}
	ports := lst.AppPorts()
	if len(ports) == 0 {
		rep.addViolation("failover", "leader %s serves no ports", leader)
		return
	}
	// The audit reply proves the branch's receiver loop is running — any
	// takeover replay has completed — before we read its state directly.
	if _, err := sendprim.Call(pr, ports[0], bank.ClientReplyType, sendprim.CallOptions{
		Timeout: b.opts.AttemptTimeout,
		Retries: 30,
		Backoff: 2 * time.Millisecond,
	}, "audit"); err != nil {
		rep.addViolation("failover", "leader branch unreachable: %v", err)
		return
	}

	g := lst.AppGuardian()
	accts, err := bank.Snapshot(g)
	if err != nil {
		rep.addViolation("failover", "leader snapshot: %v", err)
		return
	}
	var total int64
	for _, bal := range accts {
		total += bal
	}
	if total < lo || total > hi {
		rep.addViolation("conservation",
			"leader total balance %d outside [%d,%d] (acked/issued deposit and withdrawal bounds)",
			total, lo, hi)
	}

	// The execution-count audit needs the branch's volatile applies
	// counter to have seen every op: sound only when no node crashed and
	// no takeover re-created the branch mid-run.
	var takeovers int64
	for _, m := range replMembers {
		if st := b.store(m); st != nil {
			takeovers += st.ReplStats().Takeovers
		}
	}
	if !crashed && takeovers == 0 {
		applies, err := bank.Applies(g)
		if err != nil {
			rep.addViolation("exactly-once", "applies: %v", err)
		} else if applies < ackedOK || applies > issuedAmo {
			rep.addViolation("exactly-once",
				"branch executed %d ok ops, want between %d acked-ok and %d issued",
				applies, ackedOK, issuedAmo)
		}
	}

	// Exactly-once across failover, observed from the outside: a client
	// whose every call got a definite outcome must see exactly its
	// expected balances on the post-failover leader.
	for i := range b.ledgers {
		led := &b.ledgers[i]
		if !led.funded || !led.certain {
			continue
		}
		if accts[led.acctA] != led.expA || accts[led.acctB] != led.expB {
			rep.addViolation("exactly-once",
				"client %d (all calls acked): got %s=%d %s=%d, want %d/%d",
				i, led.acctA, accts[led.acctA], led.acctB, accts[led.acctB],
				led.expA, led.expB)
		}
	}

	// Replication liveness: every live member converges to (at least) the
	// leader's durable position. A deposed-and-diverged old primary may
	// sit numerically AHEAD on records the group never acknowledged —
	// that is the documented divergence limitation, not a stall — hence
	// ">=" and the Diverged() exemption.
	logName := g.LogName()
	leaderSeq := g.Log().LastDurableSeq()
	for _, m := range replMembers {
		if m == leader {
			continue
		}
		n, err := w.Node(m)
		if err != nil || !n.Alive() {
			continue
		}
		st := b.store(m)
		if st == nil || st.Diverged() {
			continue
		}
		if !waitUntil(w.Clock(), 3*time.Second, func() bool {
			l, err := st.Inner().OpenLog(logName)
			return err == nil && l.LastDurableSeq() >= leaderSeq
		}) {
			l, _ := st.Inner().OpenLog(logName)
			var at uint64
			if l != nil {
				at = l.LastDurableSeq()
			}
			rep.addViolation("replication",
				"member %s stalled at seq %d, leader %s is at %d", m, at, leader, leaderSeq)
		}
	}

	// Recovery-equals-replay on the leader: the state any future takeover
	// would reconstruct is exactly the state being served.
	cp, recs, err := g.Log().Recover()
	if err != nil && !errors.Is(err, stable.ErrNoCheckpoint) {
		rep.addViolation("recovery", "leader log recover: %v", err)
		return
	}
	replay, err := bank.ReplayAccountsFrom(cp, recs)
	if err != nil {
		rep.addViolation("recovery", "leader checkpoint decode: %v", err)
		return
	}
	if !equalAccounts(accts, replay) {
		rep.addViolation("recovery", "leader accounts %v != log replay %v", accts, replay)
	}
}
