package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/amo"
	"repro/internal/bank"
	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/xrep"
)

const (
	bankAccounts    = 64
	bankTellers     = 2
	bankWarmup      = 4 // ops per teller before the first timed one
	bankMaxTransfer = 50
)

// Op classes of bank-wal.
const (
	classWrite = iota // amo transfer: logged, fsynced, then answered
	classRead         // native-port balance: no log, no sync
)

var bankWorkload = workload{
	name:    "bank-wal",
	why:     "the durable exactly-once path: amo transfers fsync an on-disk WAL while balance reads queue behind them",
	classes: []string{"write", "read"},
	setups:  25,
	rate:    6000,
	window:  time.Second,
	open:    openBank,
}

// bankSystem is one bank branch whose node logs to an on-disk WAL, and
// two tellers, each with its own at-most-once session, on a second world
// joined to the branch by one TCP connection pair.
type bankSystem struct {
	dir                string
	branchTr, tellerTr *transport.TCP
	branchW, tellerW   *guardian.World
	wal                *durable.WAL
	native, amoPort    xrep.PortName
	accounts           []string
	funded             int64
	tellers            []*teller
	metrics            amo.Metrics
	writes             atomic.Int64
}

type teller struct {
	id     uint64
	drv    *guardian.Process
	caller *amo.Caller
	reply  *replyWaiter
	rng    *rand.Rand
}

func openBank(cfg config) (system, time.Time, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(cfg.dir, "bank-wal-")
	if err != nil {
		return nil, start, err
	}
	name, tmpfs, err := fsType(dir)
	if err != nil || tmpfs {
		os.RemoveAll(dir)
		if err == nil {
			err = fmt.Errorf("bank-wal: WAL directory %s is on %s, where fsync is free; refusing", dir, name)
		}
		return nil, start, err
	}
	s := &bankSystem{dir: dir}
	if s.branchTr, s.tellerTr, err = tcpPair("branch"); err != nil {
		os.RemoveAll(dir)
		return nil, start, err
	}
	s.branchW = guardian.NewWorld(guardian.Config{
		Transport: s.branchTr,
		Store: func(node string) (durable.Store, error) {
			wal, err := durable.OpenWAL(filepath.Join(dir, node), durable.WALConfig{})
			s.wal = wal
			return wal, err
		},
	})
	s.tellerW = guardian.NewWorld(guardian.Config{Transport: s.tellerTr})
	if err := s.build(cfg); err != nil {
		s.close()
		return nil, start, err
	}
	return s, start, nil
}

func (s *bankSystem) build(cfg config) error {
	if err := s.branchW.Register(bank.BranchDef()); err != nil {
		return err
	}
	branch, err := s.branchW.AddNode("branch")
	if err != nil {
		return err
	}
	created, err := branch.Bootstrap(bank.BranchDefName)
	if err != nil {
		return err
	}
	s.native, s.amoPort = created.Ports[0], created.Ports[1]
	node, err := s.tellerW.AddNode("tellers")
	if err != nil {
		return err
	}
	for i := 0; i < bankTellers; i++ {
		g, drv, err := node.NewDriver(fmt.Sprintf("teller%d", i))
		if err != nil {
			return err
		}
		caller, err := amo.NewCaller(drv, amo.CallerOptions{Timeout: replyTimeout, Retries: 2, Metrics: &s.metrics})
		if err != nil {
			return err
		}
		reply, err := newReplyWaiter(drv, bank.ClientReplyType, 16)
		if err != nil {
			return err
		}
		s.tellers = append(s.tellers, &teller{id: g.ID(), drv: drv, caller: caller, reply: reply,
			rng: rand.New(rand.NewSource(cfg.seed*1009 + int64(i)))})
	}

	// Open and fund every account in one logged operation, the branch's
	// bulk seed, so that setup does not wait out one fsync per account.
	amount := 1000 + rand.New(rand.NewSource(cfg.seed)).Int63n(9000)
	t0 := s.tellers[0]
	seeded, err := t0.drv.Guardian().NewPort(guardian.NewPortType("perfbench_seeded").Msg("seeded", xrep.KindInt, xrep.KindInt), 1)
	if err != nil {
		return err
	}
	if err := t0.drv.SendReplyTo(s.native, seeded.Name(), "seed", "acct-", int64(bankAccounts), amount); err != nil {
		return err
	}
	if _, st := t0.drv.Receive(replyTimeout, seeded); st != guardian.RecvOK {
		return fmt.Errorf("seed: no reply: %v", st)
	}
	g, ok := branch.GuardianByID(created.GuardianID)
	if !ok {
		return fmt.Errorf("branch guardian %d vanished", created.GuardianID)
	}
	balances, err := bank.Snapshot(g)
	if err != nil {
		return err
	}
	if len(balances) != bankAccounts {
		return fmt.Errorf("seed opened %d accounts, want %d", len(balances), bankAccounts)
	}
	for acct, bal := range balances {
		s.accounts = append(s.accounts, acct)
		s.funded += bal
	}
	sort.Strings(s.accounts)
	for c := range s.tellers {
		for i := 0; i < bankWarmup; i++ {
			if _, err := s.op(c, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

func (s *bankSystem) clients() int { return bankTellers }

// op is a transfer between two distinct seeded-random accounts or a
// balance read, with equal odds.
func (s *bankSystem) op(c int, t *tracer) (int, error) {
	tl := s.tellers[c]
	if tl.rng.Intn(2) == 0 {
		from := tl.rng.Intn(len(s.accounts))
		to := (from + 1 + tl.rng.Intn(len(s.accounts)-1)) % len(s.accounts)
		amount := 1 + tl.rng.Int63n(bankMaxTransfer)
		t.begin("amo.call")
		r, err := tl.caller.Call(s.amoPort, "transfer", s.accounts[from], s.accounts[to], amount)
		t.end()
		if err != nil {
			return classWrite, err
		}
		s.writes.Add(1)
		return classWrite, checkTransfer(r)
	}
	acct := s.accounts[tl.rng.Intn(len(s.accounts))]
	t.begin("guardian.send")
	err := tl.drv.SendReplyTo(s.native, tl.reply.name(), "balance", acct)
	t.end()
	if err != nil {
		return classRead, err
	}
	m, err := tl.reply.receive(t)
	if err != nil {
		return classRead, fmt.Errorf("bank: balance: %w", err)
	}
	return classRead, checkBalance(m, s.funded)
}

// checkTransfer accepts the two outcomes a transfer between existing
// accounts may have.
func checkTransfer(r *amo.Reply) error {
	if r.Command != bank.OutcomeOK && r.Command != bank.OutcomeInsufficient {
		return wrongf("bank: transfer outcome %s", r.Command)
	}
	return nil
}

// checkBalance accepts a balance between zero and all the money funded.
func checkBalance(m *guardian.Message, funded int64) error {
	if m.Command != "balance_is" || len(m.Args) != 1 {
		return wrongf("bank: reply %s with %d args, want balance_is(amount)", m.Command, len(m.Args))
	}
	if bal, ok := m.Args[0].(xrep.Int); !ok || bal < 0 || int64(bal) > funded {
		return wrongf("bank: balance %v outside [0, %d]", m.Args[0], funded)
	}
	return nil
}

// checkAudit verifies the branch still holds every account and exactly
// the money funded: transfers move money, never make or lose it.
func checkAudit(m *guardian.Message, accounts int, funded int64) error {
	if m.Command != "audit_info" || len(m.Args) != 2 {
		return wrongf("bank: reply %s with %d args, want audit_info(accounts, total)", m.Command, len(m.Args))
	}
	n, ok1 := m.Args[0].(xrep.Int)
	total, ok2 := m.Args[1].(xrep.Int)
	if !ok1 || !ok2 || int(n) != accounts || int64(total) != funded {
		return wrongf("bank: audit found %v accounts holding %v, want %d holding %d", m.Args[0], m.Args[1], accounts, funded)
	}
	return nil
}

func (s *bankSystem) finish() error {
	tl := s.tellers[0]
	if err := tl.drv.SendReplyTo(s.native, tl.reply.name(), "audit"); err != nil {
		return err
	}
	m, err := tl.reply.receive(nil)
	if err != nil {
		return fmt.Errorf("bank: audit: %w", err)
	}
	return checkAudit(m, len(s.accounts), s.funded)
}

func (s *bankSystem) counters() counters {
	var c counters
	addTransport(&c, s.branchTr)
	addTransport(&c, s.tellerTr)
	addWorld(&c, s.branchW)
	addWorld(&c, s.tellerW)
	c.amoCalls = s.metrics.Calls.Load()
	c.amoRetries = s.metrics.Retries.Load()
	c.fsyncs = s.wal.SyncCount()
	c.walBytes = dirBytes(s.dir)
	c.writes = s.writes.Load()
	return c
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// transferFrame is the amo envelope a teller's transfer travels in:
// (client, seq, ack, command, args), with the caller's reply port.
func transferFrame(dest, replyTo xrep.PortName, src string, srcGuardian uint64) ([]any, wire.Frame) {
	args := []any{"perfbench-client", int64(1), int64(0), "transfer",
		xrep.Seq{xrep.Str("acct-00"), xrep.Str("acct-01"), xrep.Int(bankMaxTransfer)}}
	return args, wire.Frame{Dest: dest, SrcNode: src, SrcGuardian: srcGuardian, MsgID: 1,
		Command: amo.ReqCommand, ReplyTo: replyTo}
}

func (s *bankSystem) probe(p *prober) error {
	tl := s.tellers[0]
	args, frame := transferFrame(s.amoPort, tl.reply.name(), "tellers", tl.id)
	pkt, err := p.probeCodec(args, nil, frame)
	if err != nil {
		return err
	}
	if err := p.probeTCP(pkt); err != nil {
		return err
	}
	// The scratch record is as large as what one transfer adds to the WAL.
	size := int(ratio(float64(p.phase.walBytes), float64(p.phase.writes)))
	if size < 1 {
		size = 1
	}
	return p.probeAppendSync(s.dir, size)
}

func (s *bankSystem) close() {
	s.tellerW.Close()
	s.branchW.Close()
	os.RemoveAll(s.dir)
}
