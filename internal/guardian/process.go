package guardian

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/xrep"
)

// Process is the execution of a sequential program within a guardian.
// Processes are anonymous providers of activity: messages are never
// addressed to them, only to their guardian's ports.
type Process struct {
	g    *Guardian
	name string

	// rw holds the wait a wall-clock Receive reuses while it is free.
	rw atomic.Pointer[waiter]
}

// Guardian returns the process's guardian.
func (pr *Process) Guardian() *Guardian { return pr.g }

// Name returns the process's debug name.
func (pr *Process) Name() string { return pr.name }

// Killed returns the guardian's kill channel.
func (pr *Process) Killed() <-chan struct{} { return pr.g.killCh }

// Infinite is the Receive timeout meaning "wait forever".
const Infinite time.Duration = -1

// RecvStatus reports how a Receive ended.
type RecvStatus int

// Receive outcomes.
const (
	// RecvOK: a message was removed from one of the ports.
	RecvOK RecvStatus = iota
	// RecvTimeout: the timeout arm was selected.
	RecvTimeout
	// RecvKilled: the guardian died while waiting.
	RecvKilled
)

// String returns the status name.
func (s RecvStatus) String() string {
	switch s {
	case RecvOK:
		return "ok"
	case RecvTimeout:
		return "timeout"
	case RecvKilled:
		return "killed"
	default:
		return "unknown"
	}
}

// Send is the no-wait send (§3): the arguments are encoded left to right,
// the message is constructed, and transmission begins; the sender
// continues as soon as future actions cannot affect the transmitted
// values. Only local problems are reported — an encode exception, a
// violated system-wide type bound, or a dead sending guardian. Delivery
// itself is best-effort and unordered.
func (pr *Process) Send(to xrep.PortName, command string, args ...any) error {
	return pr.send(to, xrep.PortName{}, nil, command, args...)
}

// SendReplyTo is Send with a replyto port, "used to convey where to send a
// response if one is required". The reply port may belong to a different
// guardian than the sending process.
func (pr *Process) SendReplyTo(to xrep.PortName, replyTo xrep.PortName, command string, args ...any) error {
	return pr.send(to, replyTo, nil, command, args...)
}

// SendChecked is Send with the sender-side half of compile-time message
// checking: the caller names the destination's port type (from the
// library), and the command and argument kinds are verified before the
// message leaves. This is the library-level analog of CLU's compile-time
// check against guardian headers.
func (pr *Process) SendChecked(pt *PortType, to xrep.PortName, command string, args ...any) error {
	return pr.send(to, xrep.PortName{}, pt, command, args...)
}

// SendCheckedReplyTo combines SendChecked and SendReplyTo.
func (pr *Process) SendCheckedReplyTo(pt *PortType, to, replyTo xrep.PortName, command string, args ...any) error {
	return pr.send(to, replyTo, pt, command, args...)
}

func (pr *Process) send(to, replyTo xrep.PortName, pt *PortType, command string, args ...any) error {
	if !pr.g.Alive() {
		return ErrKilled
	}
	// §3.4 step 1: encode arguments left to right; an encode exception
	// terminates the send.
	enc, err := xrep.EncodeAll(args...)
	if err != nil {
		return err
	}
	if err := pr.g.node.world.cfg.Limits.ValidateSeq(enc); err != nil {
		return err
	}
	if pt != nil {
		if err := pt.check(command, enc); err != nil {
			return err
		}
	}
	f := &wire.Frame{
		Dest:        to,
		SrcNode:     pr.g.node.name,
		SrcGuardian: pr.g.id,
		MsgID:       pr.g.node.msgID.Add(1),
		Command:     command,
		Args:        enc,
		ReplyTo:     replyTo,
	}
	// §3.4 steps 2 and 3: construct the message and transmit. The process
	// continues once the frame is built; delivery is the system's
	// best-effort job.
	if err := pr.g.node.routeFrame(f); err != nil {
		return err
	}
	pr.g.node.world.stats.MessagesSent.Add(1)
	if pr.g.node.world.tracer.Load() != nil { // spares boxing trace's arguments
		pr.g.node.world.trace(EvSend, pr.g.node.name, "%s(..) guardian %d -> %s/%d/%d",
			command, pr.g.id, to.Node, to.Guardian, to.Port)
	}
	return nil
}

// Receive implements the paper's receive statement's selection rule: if
// messages have already arrived at ports in the list, one is removed, with
// earlier ports given priority; otherwise the process waits for an arrival
// or times out, whichever happens first.
//
// timeout Infinite waits forever; timeout 0 polls. A RecvKilled status
// means the guardian died while the process waited.
func (pr *Process) Receive(timeout time.Duration, ports ...*Port) (*Message, RecvStatus) {
	for _, p := range ports {
		if p.guardian != pr.g {
			panic("guardian: receive on another guardian's port")
		}
	}
	if !pr.g.Alive() {
		return nil, RecvKilled
	}
	// Fast path: a queued message on the highest-priority nonempty port.
	for _, p := range ports {
		if m := p.tryDequeue(); m != nil {
			return m, RecvOK
		}
	}
	if timeout == 0 {
		return nil, RecvTimeout
	}

	w := pr.takeWaiter()
	for _, p := range ports {
		p.addWaiter(w)
	}
	defer func() {
		for _, p := range ports {
			p.removeWaiter(w)
		}
		pr.putWaiter(w)
	}()
	// Re-scan after registering: a message delivered between the fast-path
	// scan and addWaiter saw no waiters and went to the buffer, where it
	// would sit for the full timeout while this process sleeps. Claiming
	// our own waiter closes the window; if a deliver claimed it first, the
	// wait below completes immediately from w.ch.
	for _, p := range ports {
		if m := p.claimQueued(w); m != nil {
			return m, RecvOK
		}
	}
	return pr.wait(w, timeout)
}

// newWaiter returns a fresh wait for this process.
func (pr *Process) newWaiter() *waiter {
	return &waiter{ch: make(chan *Message, 1), vc: pr.g.node.world.vclock}
}

// takeWaiter takes the reusable wait if free, else makes one. putWaiter
// keeps only wall-clock waits, whose wakers are all gone once the wait
// returns; on a Sim a timeout callback or kill event may outlive it.
func (pr *Process) takeWaiter() *waiter {
	if w := pr.rw.Swap(nil); w != nil {
		w.claimed.Store(false)
		return w
	}
	return pr.newWaiter()
}

func (pr *Process) putWaiter(w *waiter) {
	if w.vc == nil {
		pr.rw.Store(w)
	}
}

// wait blocks until a source claims w, the timeout (Infinite: none)
// elapses, or the guardian dies.
func (pr *Process) wait(w *waiter, timeout time.Duration) (*Message, RecvStatus) {
	if w.vc != nil {
		return pr.waitCounted(w, timeout)
	}
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := w.timer
		if r, ok := t.(interface{ Reset(time.Duration) bool }); ok {
			r.Reset(timeout)
		} else {
			t = pr.g.node.world.clock.NewTimer(timeout)
		}
		defer func() {
			// Keep only an unfired timer: a fired one's expiry may still
			// be in flight (pre-Go 1.23 timers, per this module's go line).
			w.timer = nil
			if t.Stop() {
				w.timer = t
			}
		}()
		timeoutC = t.C()
	}

	select {
	case m := <-w.ch:
		return m, RecvOK
	case <-timeoutC:
		if w.claimed.CompareAndSwap(false, true) {
			return nil, RecvTimeout
		}
		// A port won the race just as the timer fired; take the message.
		return <-w.ch, RecvOK
	case <-pr.g.killCh:
		if w.claimed.CompareAndSwap(false, true) {
			return nil, RecvKilled
		}
		return <-w.ch, RecvOK
	}
}

// waitCounted is wait on a simulated clock. Every way the wait can end
// claims w, and the claimer counts the process runnable again, so the
// process blocks on w.ch alone: the timeout is an AfterFunc timer and
// death comes through the guardian's kill event.
func (pr *Process) waitCounted(w *waiter, timeout time.Duration) (*Message, RecvStatus) {
	pr.g.killEv.Subscribe(w)
	defer pr.g.killEv.Unsubscribe(w)
	if timeout > 0 {
		t := w.vc.AfterFunc(timeout, func() { w.end(endTimeout) })
		defer t.Stop()
	}
	w.vc.Park()
	switch m := <-w.ch; m {
	case endTimeout:
		return nil, RecvTimeout
	case endKilled:
		return nil, RecvKilled
	default:
		return m, RecvOK
	}
}

// Pause sleeps on the world clock, returning early (false) if the
// guardian is killed.
func (pr *Process) Pause(d time.Duration) bool {
	if d <= 0 {
		return pr.g.Alive()
	}
	w := pr.takeWaiter()
	defer pr.putWaiter(w)
	_, st := pr.wait(w, d)
	return st == RecvTimeout
}

// Signal is a coalescing wake-up for one process, the counted form of a
// buffered(1) "poke" channel: Notify wakes the process blocked in Await
// on it, or, if none is, makes the next Await return at once. The zero
// value is ready to use.
type Signal struct {
	mu      sync.Mutex
	pending bool
	w       *waiter
}

// Notify wakes the waiting process, or leaves the wake-up pending.
func (s *Signal) Notify() {
	s.mu.Lock()
	w := s.w
	s.w = nil
	s.mu.Unlock()
	if w != nil && w.end(endSignaled) {
		return
	}
	s.mu.Lock()
	s.pending = true
	s.mu.Unlock()
}

// Await blocks until s is notified (RecvOK), d elapses (RecvTimeout), or
// the guardian dies (RecvKilled).
func (pr *Process) Await(s *Signal, d time.Duration) RecvStatus {
	if !pr.g.Alive() {
		return RecvKilled
	}
	s.mu.Lock()
	if s.pending {
		s.pending = false
		s.mu.Unlock()
		return RecvOK
	}
	w := pr.newWaiter()
	s.w = w
	s.mu.Unlock()
	_, st := pr.wait(w, d)
	s.mu.Lock()
	if s.w == w {
		s.w = nil
	}
	s.mu.Unlock()
	return st
}
