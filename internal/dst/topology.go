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

// Topology describes a generated sharded world: Shards independent bank
// branches, each on its own node (ReplFactor ≤ 1) or behind its own
// quorum replica group (ReplFactor ≥ 3, odd), plus the shared clients
// node. Shards=67 with ReplFactor=3 is the 200-node scale sweep: 201
// member nodes, one clients node, 67 replicated logs.
type Topology struct {
	// Shards is the number of independent bank branches.
	Shards int
	// ReplFactor is the number of members in each shard's replica group.
	// 0 or 1 places each branch on one plain node; an odd value ≥ 3
	// places it behind a quorum group whose members heartbeat, elect, and
	// ship logs exactly as the three-member replica workload does.
	ReplFactor int
}

func (t Topology) replicated() bool { return t.ReplFactor > 1 }

// shardsPerClient is how many shards each client session spreads its
// operations over (capped at Shards). A stride assignment keeps every
// client's shard set deterministic without consuming any random stream.
const shardsPerClient = 3

func shardGroup(i int) string   { return fmt.Sprintf("dst-s%d", i) }
func shardService(i int) string { return fmt.Sprintf("bank/s%d", i) }

// shardSums is one shard's conservation bookkeeping: the same
// acked/issued deposit and withdrawal bounds the single-branch workloads
// keep, but per branch — money never moves between shards.
type shardSums struct {
	issuedDep, ackedDep int64
	issuedWd, ackedWd   int64
}

// shardedWorkload is the bank workload scaled out: many branches, each
// its own guardian (and, replicated, its own quorum group with its own
// log, elections, and service name), all sharing one lossy network and
// one fault schedule. Every single-branch invariant holds per shard:
//
//	conservation:  Σ balances on shard i ∈ [ackedDep−issuedWd,
//	               issuedDep−ackedWd], bounds from shard i's ledger only.
//	balance:       exact expected balances per (client, shard) whose every
//	               call on that shard was acked.
//	recovery:      each branch's served state equals a replay of its own
//	               durable log (checkpoint-aware).
//	failover:      (replicated) each group ends with a live leader
//	               serving its branch.
type shardedWorkload struct {
	opts Options
	topo Topology
	w    *guardian.World
	met  *amo.Metrics

	// shardNodes[i] is shard i's node set; index 0 is the initial
	// primary (replicated) or the only node (plain).
	shardNodes  [][]string
	memberShard map[string]int
	nsPort      xrep.PortName

	// clientShards[c] are the shard indices client c operates on;
	// ledgers[c] is parallel to it.
	clientShards [][]int
	ledgers      [][]clientLedger

	created []*guardian.Created // per shard; plain mode only

	storesMu sync.Mutex
	stores   map[string]*replica.Store // member node → store; replicated only

	mu        sync.Mutex
	sums      []shardSums
	opsIssued int64
	opsAcked  int64
	opsFailed int64
}

func newShardedWorkload(opts Options) (*shardedWorkload, error) {
	t := *opts.Topology
	if t.Shards < 1 {
		return nil, fmt.Errorf("dst: topology needs at least 1 shard, got %d", t.Shards)
	}
	if t.replicated() && (t.ReplFactor < 3 || t.ReplFactor%2 == 0) {
		return nil, fmt.Errorf("dst: topology ReplFactor must be 0, 1, or an odd number >= 3, got %d", t.ReplFactor)
	}
	s := &shardedWorkload{
		opts:        opts,
		topo:        t,
		met:         &amo.Metrics{},
		memberShard: make(map[string]int),
		nsPort:      xrep.PortName{Node: clientsNode, Guardian: 2, Port: 1},
		created:     make([]*guardian.Created, t.Shards),
		stores:      make(map[string]*replica.Store),
		sums:        make([]shardSums, t.Shards),
	}
	for i := 0; i < t.Shards; i++ {
		var nodes []string
		if t.replicated() {
			for j := 0; j < t.ReplFactor; j++ {
				nodes = append(nodes, fmt.Sprintf("s%dm%d", i, j+1))
			}
		} else {
			nodes = []string{fmt.Sprintf("s%d", i)}
		}
		for _, n := range nodes {
			s.memberShard[n] = i
		}
		s.shardNodes = append(s.shardNodes, nodes)
	}
	per := shardsPerClient
	if per > t.Shards {
		per = t.Shards
	}
	for c := 0; c < opts.Clients; c++ {
		shards := make([]int, per)
		for k := range shards {
			shards[k] = (c*per + k) % t.Shards
		}
		s.clientShards = append(s.clientShards, shards)
		s.ledgers = append(s.ledgers, make([]clientLedger, per))
	}
	return s, nil
}

func (s *shardedWorkload) crashNodes() []string {
	var out []string
	for _, nodes := range s.shardNodes {
		out = append(out, nodes...)
	}
	return out
}

func (s *shardedWorkload) allNodes() []string {
	return append(s.crashNodes(), clientsNode)
}

// killNodes: replicated shards can lose their initial primary for good —
// the remaining majority elects past it; a plain shard cannot survive
// permanent node loss, so nothing is kill-eligible.
func (s *shardedWorkload) killNodes() []string {
	if !s.topo.replicated() {
		return nil
	}
	out := make([]string, len(s.shardNodes))
	for i, nodes := range s.shardNodes {
		out[i] = nodes[0]
	}
	return out
}

// wrapStore puts each member node's store behind its shard's replication
// layer; the clients node (and every node in plain mode) keeps its plain
// store.
func (s *shardedWorkload) wrapStore(node string, inner durable.Store) (durable.Store, error) {
	si, ok := s.memberShard[node]
	if !ok || !s.topo.replicated() {
		return inner, nil
	}
	st, err := replica.NewStore(inner, replica.Config{
		Group:       shardGroup(si),
		Self:        node,
		Members:     s.shardNodes[si],
		Mode:        replica.ModeQuorum,
		Heartbeat:   replHeartbeat,
		Threshold:   replThreshold,
		AppDef:      bank.BranchDefName,
		AppArgs:     branchArgs(s.opts),
		Service:     shardService(si),
		NS:          s.nsPort,
		ServicePort: 1,
	})
	if err != nil {
		return nil, err
	}
	s.storesMu.Lock()
	s.stores[node] = st
	s.storesMu.Unlock()
	return st, nil
}

func (s *shardedWorkload) store(node string) *replica.Store {
	s.storesMu.Lock()
	defer s.storesMu.Unlock()
	return s.stores[node]
}

func (s *shardedWorkload) setup(w *guardian.World) error {
	s.w = w
	w.MustRegister(bank.BranchDef())
	if s.topo.replicated() {
		w.MustRegister(replica.Def())
		w.MustRegister(nameserv.Def())
	}
	cl := w.MustAddNode(clientsNode)
	if s.topo.replicated() {
		if _, err := cl.Bootstrap(nameserv.DefName); err != nil {
			return err
		}
	}
	for i, nodes := range s.shardNodes {
		if s.topo.replicated() {
			// The replicator must be each member's FIRST guardian: its
			// port {node, 2, 1} is the a-priori address group members
			// reach each other at.
			for _, m := range nodes {
				n := w.MustAddNode(m)
				if _, err := n.Bootstrap(replica.DefName); err != nil {
					return err
				}
			}
			primary, err := w.Node(nodes[0])
			if err != nil {
				return err
			}
			created, err := primary.Bootstrap(bank.BranchDefName, branchArgs(s.opts)...)
			if err != nil {
				return err
			}
			s.store(nodes[0]).Adopt(primary, created)
		} else {
			n := w.MustAddNode(nodes[0])
			created, err := n.Bootstrap(bank.BranchDefName, branchArgs(s.opts)...)
			if err != nil {
				return err
			}
			s.created[i] = created
		}
	}
	return nil
}

// shardConn is one client's connection to one shard: the port to call
// and the at-most-once caller that calls it.
type shardConn struct {
	port   xrep.PortName
	caller *amo.Caller
}

// dial builds the connection to shard si: plain mode calls the branch's
// at-most-once port directly; replicated mode waits for the shard's
// service binding and re-resolves it on every retry, chasing failovers.
func (s *shardedWorkload) dial(pr *guardian.Process, ns *nameserv.Client, si int, crng *rand.Rand) *shardConn {
	var port xrep.PortName
	var resolve func() (xrep.PortName, bool)
	if s.topo.replicated() {
		svc := shardService(si)
		bound := false
		for try := 0; try < 200; try++ {
			if p, _, err := ns.Lookup(svc, s.opts.AttemptTimeout); err == nil {
				port, bound = p, true
				break
			}
			pr.Pause(5 * time.Millisecond)
		}
		if !bound {
			return nil
		}
		resolve = func() (xrep.PortName, bool) {
			p, _, err := ns.Lookup(svc, s.opts.AttemptTimeout)
			return p, err == nil
		}
	} else {
		port = s.created[si].Ports[1]
	}
	caller, err := amo.NewCaller(pr, amo.CallerOptions{
		Timeout: s.opts.AttemptTimeout,
		Retries: s.opts.Retries,
		Backoff: amo.BackoffPolicy{Base: 2 * time.Millisecond, Jitter: 0.5},
		Seed:    crng.Int63(),
		Metrics: s.met,
		Resolve: resolve,
	})
	if err != nil {
		return nil
	}
	return &shardConn{port: port, caller: caller}
}

func (s *shardedWorkload) client(i int, crng *rand.Rand) {
	shards := s.clientShards[i]
	node, err := s.w.Node(clientsNode)
	if err != nil {
		return
	}
	_, pr, err := node.NewDriver(fmt.Sprintf("shard-client-%d", i))
	if err != nil {
		return
	}
	var ns *nameserv.Client
	if s.topo.replicated() {
		if ns, err = nameserv.NewClient(pr, s.nsPort); err != nil {
			return
		}
	}

	// Connect to and fund every assigned shard. A shard that cannot be
	// dialed or funded is dropped from the ops loop with its ledger
	// marked uncertain — its conservation bounds stay sound either way.
	conns := make([]*shardConn, len(shards))
	for k, si := range shards {
		led := &s.ledgers[i][k]
		led.acctA, led.acctB = fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		led.certain = true
		conn := s.dial(pr, ns, si, crng)
		if conn == nil {
			led.certain = false
			continue
		}
		defer conn.caller.Close()

		open := func(acct string) bool {
			s.note(func() { s.opsIssued++ })
			rep, err := conn.caller.Call(conn.port, "open", acct)
			if err != nil || (rep.Command != bank.OutcomeOK && rep.Command != bank.OutcomeExists) {
				s.note(func() { s.opsFailed++ })
				led.certain = false
				return false
			}
			s.note(func() { s.opsAcked++ })
			return true
		}
		if !open(led.acctA) || !open(led.acctB) {
			continue
		}
		si := si
		s.note(func() { s.opsIssued++; s.sums[si].issuedDep += seedFunds })
		rep, err := conn.caller.Call(conn.port, "deposit", led.acctA, int64(seedFunds))
		if err != nil || rep.Command != bank.OutcomeOK {
			s.note(func() { s.opsFailed++ })
			led.certain = false
			continue
		}
		s.note(func() { s.opsAcked++; s.sums[si].ackedDep += seedFunds })
		led.funded = true
		led.expA = seedFunds
		conns[k] = conn
	}

	for op := 0; op < s.opts.OpsPerClient; op++ {
		pace(pr, crng, s.opts)
		// Every draw happens whether or not the chosen shard is usable,
		// so one dead shard does not shift the stream feeding the rest.
		k := crng.Intn(len(shards))
		si := shards[k]
		led := &s.ledgers[i][k]
		acct, exp := led.acctA, &led.expA
		if crng.Intn(2) == 1 {
			acct, exp = led.acctB, &led.expB
		}
		pick := crng.Intn(10)
		amt := 1 + crng.Int63n(9)
		conn := conns[k]
		if conn == nil {
			continue
		}
		switch {
		case pick < 4: // deposit
			s.note(func() { s.opsIssued++; s.sums[si].issuedDep += amt })
			rep, err := conn.caller.Call(conn.port, "deposit", acct, amt)
			if err != nil {
				s.note(func() { s.opsFailed++ })
				led.certain = false
				continue
			}
			s.note(func() { s.opsAcked++ })
			if rep.Command == bank.OutcomeOK {
				s.note(func() { s.sums[si].ackedDep += amt })
				*exp += amt
			}
		case pick < 7: // withdraw
			s.note(func() { s.opsIssued++; s.sums[si].issuedWd += amt })
			rep, err := conn.caller.Call(conn.port, "withdraw", acct, amt)
			if err != nil {
				s.note(func() { s.opsFailed++ })
				led.certain = false
				continue
			}
			s.note(func() { s.opsAcked++ })
			if rep.Command == bank.OutcomeOK {
				s.note(func() { s.sums[si].ackedWd += amt })
				*exp -= amt
			}
		default: // intra-branch transfer a→b
			s.note(func() { s.opsIssued++ })
			rep, err := conn.caller.Call(conn.port, "transfer", led.acctA, led.acctB, amt)
			if err != nil {
				s.note(func() { s.opsFailed++ })
				led.certain = false
				continue
			}
			s.note(func() { s.opsAcked++ })
			if rep.Command == bank.OutcomeOK {
				led.expA -= amt
				led.expB += amt
			}
		}
	}
}

func (s *shardedWorkload) note(f func()) {
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

// findLeader returns shard si's live leading member with a serving
// branch, if any.
func (s *shardedWorkload) findLeader(w *guardian.World, si int) (string, *replica.Store) {
	for _, m := range s.shardNodes[si] {
		n, err := w.Node(m)
		if err != nil || !n.Alive() {
			continue
		}
		st := s.store(m)
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
func (s *shardedWorkload) replStats(rep *Report) {
	var sum replica.Stats
	s.storesMu.Lock()
	for _, st := range s.stores {
		st := st.ReplStats()
		sum.ShippedBatches += st.ShippedBatches
		sum.ShippedRecords += st.ShippedRecords
		sum.AppliedRecords += st.AppliedRecords
		sum.CheckpointsShipped += st.CheckpointsShipped
		sum.FencedStale += st.FencedStale
		sum.ForksDetected += st.ForksDetected
		sum.Heals += st.Heals
		sum.Elections += st.Elections
		sum.Takeovers += st.Takeovers
	}
	s.storesMu.Unlock()
	rep.Repl = sum
}

func (s *shardedWorkload) check(w *guardian.World, rep *Report, crashed bool) {
	s.mu.Lock()
	rep.OpsIssued, rep.OpsAcked, rep.OpsFailed = s.opsIssued, s.opsAcked, s.opsFailed
	sums := make([]shardSums, len(s.sums))
	copy(sums, s.sums)
	s.mu.Unlock()
	rep.Retries = s.met.Retries.Load()
	if s.topo.replicated() {
		defer s.replStats(rep)
	}

	cnode, err := w.Node(clientsNode)
	if err != nil {
		rep.addViolation("setup", "clients node missing: %v", err)
		return
	}
	_, pr, err := cnode.NewDriver("shard-checker")
	if err != nil {
		rep.addViolation("setup", "checker driver: %v", err)
		return
	}
	ping := func(port xrep.PortName) error {
		_, err := sendprim.Call(pr, port, bank.ClientReplyType, sendprim.CallOptions{
			Timeout: s.opts.AttemptTimeout,
			Retries: 30,
			Backoff: 2 * time.Millisecond,
		}, "audit")
		return err
	}

	for si := range s.shardNodes {
		// Locate the shard's serving branch guardian.
		var g *guardian.Guardian
		if s.topo.replicated() {
			var leader string
			var lst *replica.Store
			if !waitUntil(w.Clock(), 3*time.Second, func() bool {
				leader, lst = s.findLeader(w, si)
				return lst != nil
			}) {
				// A group whose clean (undiverged) members no longer form
				// a majority cannot elect: quarantine is persistent until
				// a superseding checkpoint arrives, and shipping one needs
				// a leader. That is the documented availability cost of
				// fork quarantine — safety holds (a forked log's extra
				// records were never acknowledged as durable) — so a
				// clean-minority shard is unauditable, not in violation.
				clean := 0
				for _, m := range s.shardNodes[si] {
					if st := s.store(m); st != nil && !st.Diverged() {
						clean++
					}
				}
				if clean <= len(s.shardNodes[si])/2 {
					continue
				}
				rep.addViolation("failover",
					"shard %d: no live leader serving the branch (%d clean members)", si, clean)
				continue
			}
			if si == 0 {
				rep.Leader = leader
			}
			ports := lst.AppPorts()
			if len(ports) == 0 {
				rep.addViolation("failover", "shard %d: leader %s serves no ports", si, leader)
				continue
			}
			// The audit reply proves the branch's receiver loop is running
			// — any takeover replay completed — before state is read.
			if err := ping(ports[0]); err != nil {
				rep.addViolation("failover", "shard %d: leader branch unreachable: %v", si, err)
				continue
			}
			g = lst.AppGuardian()
		} else {
			n, err := w.Node(s.shardNodes[si][0])
			if err != nil {
				rep.addViolation("recovery", "shard %d: node missing: %v", si, err)
				continue
			}
			if !n.Alive() {
				if err := n.Restart(); err != nil {
					rep.addViolation("recovery", "shard %d: restart failed: %v", si, err)
					continue
				}
			}
			if err := ping(s.created[si].Ports[0]); err != nil {
				rep.addViolation("recovery", "shard %d: branch unreachable: %v", si, err)
				continue
			}
			var ok bool
			g, ok = n.GuardianByID(s.created[si].GuardianID)
			if !ok {
				rep.addViolation("recovery", "shard %d: branch guardian %d missing", si, s.created[si].GuardianID)
				continue
			}
		}

		accts, err := bank.Snapshot(g)
		if err != nil {
			rep.addViolation("recovery", "shard %d: snapshot: %v", si, err)
			continue
		}
		var total int64
		for _, bal := range accts {
			total += bal
		}
		lo := sums[si].ackedDep - sums[si].issuedWd
		hi := sums[si].issuedDep - sums[si].ackedWd
		if total < lo || total > hi {
			rep.addViolation("conservation",
				"shard %d: total balance %d outside [%d,%d] (acked/issued deposit and withdrawal bounds)",
				si, total, lo, hi)
		}

		// Exact balances per (client, shard) whose every call on this
		// shard was acked.
		for ci := range s.ledgers {
			for k, assigned := range s.clientShards[ci] {
				if assigned != si {
					continue
				}
				led := &s.ledgers[ci][k]
				if !led.funded || !led.certain {
					continue
				}
				if accts[led.acctA] != led.expA || accts[led.acctB] != led.expB {
					rep.addViolation("balance",
						"shard %d: client %d (all calls acked): got %s=%d %s=%d, want %d/%d",
						si, ci, led.acctA, accts[led.acctA], led.acctB, accts[led.acctB],
						led.expA, led.expB)
				}
			}
		}

		// Recovery-equals-replay: the served state is exactly what a
		// restart (or, replicated, a takeover) would reconstruct from
		// the durable log, checkpoint included.
		cp, recs, err := g.Log().Recover()
		if err != nil && !errors.Is(err, stable.ErrNoCheckpoint) {
			rep.addViolation("recovery", "shard %d: log recover: %v", si, err)
			continue
		}
		replay, err := bank.ReplayAccountsFrom(cp, recs)
		if err != nil {
			rep.addViolation("recovery", "shard %d: checkpoint decode: %v", si, err)
			continue
		}
		if !equalAccounts(accts, replay) {
			rep.addViolation("recovery", "shard %d: accounts %v != log replay %v", si, accts, replay)
		}
	}
}
