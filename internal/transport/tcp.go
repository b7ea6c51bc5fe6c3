package transport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTCPMaxFrame bounds a single TCP data payload when TCPConfig
// leaves MaxFrame zero: 64 MiB, large enough for any external rep the
// bank ships today with room to grow, small enough that one hostile
// length prefix cannot ask for unbounded memory.
const DefaultTCPMaxFrame = 64 << 20

// Dialer is the seam through which the TCP transport opens outbound
// connections. *net.Dialer is the default; a *tls.Dialer (or anything
// else satisfying the same one-method contract) drops in without the
// state machine noticing — that is the whole point of the seam.
type Dialer interface {
	Dial(network, address string) (net.Conn, error)
}

// TCPConfig tunes a TCP transport.
type TCPConfig struct {
	// Listen is the "host:port" the shared listener binds (":0" for an
	// ephemeral port, read back with ListenAddr). One listener serves
	// every attached logical name: streams multiplex, they do not bind
	// per-name sockets the way UDP does.
	Listen string
	// Advertise is the address the select handshake announces to peers —
	// the address they should dial (and key their connection tables) by.
	// Empty means the listener's own address, which is right except when
	// binding a wildcard like "0.0.0.0:9001".
	Advertise string
	// Peers maps logical node names to remote listener addresses, seeding
	// the routing table; peers not listed are learned from inbound
	// traffic via Learn, exactly as for UDP.
	Peers map[Addr]string
	// MaxFrame bounds the payload of one data frame; larger sends fail
	// with ErrTooLarge. Zero means DefaultTCPMaxFrame. This is the bound
	// the stream removes the MTU in favor of: megabytes, not 1400 bytes.
	MaxFrame int
	// Dialer opens outbound connections. Nil means a *net.Dialer with
	// DialTimeout; a *tls.Dialer makes every link TLS without further
	// changes.
	Dialer Dialer
	// DialTimeout bounds one dial attempt and each handshake read/write.
	// Zero means 2s.
	DialTimeout time.Duration
	// WriteTimeout bounds one write batch; an overrun resets the
	// connection (a peer that cannot drain is indistinguishable from a
	// dead one). Zero means 10s.
	WriteTimeout time.Duration
	// Heartbeat is the linktest interval: each tick without inbound
	// traffic sends a linktest and counts a miss. Zero means 2s.
	Heartbeat time.Duration
	// MissThreshold is how many consecutive heartbeat misses a connection
	// survives before it is declared half-open and reset. Zero means 3.
	MissThreshold int
	// IdleTimeout tears down (cleanly, via deselect) a connection idle in
	// both directions, to be re-dialed on demand. Zero means 2 minutes;
	// negative disables idle teardown.
	IdleTimeout time.Duration
	// ReconnectBase / ReconnectCap bound the jittered exponential backoff
	// between reconnect attempts. Zero means 50ms / 3s.
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
	// MaxSendQueue bounds the frames queued per peer while its link is
	// down; overflow drops frames (counted), because best-effort means
	// the backlog must not grow without bound. Zero means 256.
	MaxSendQueue int
	// MaxSendQueueBytes is the matching byte bound. Zero means 128 MiB.
	MaxSendQueueBytes int
	// Seed makes reconnect jitter deterministic for tests.
	Seed int64
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultTCPMaxFrame
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 2 * time.Second
	}
	if c.MissThreshold == 0 {
		c.MissThreshold = 3
	}
	switch {
	case c.IdleTimeout == 0:
		c.IdleTimeout = 2 * time.Minute
	case c.IdleTimeout < 0:
		c.IdleTimeout = 0
	}
	if c.ReconnectBase == 0 {
		c.ReconnectBase = 50 * time.Millisecond
	}
	if c.ReconnectCap == 0 {
		c.ReconnectCap = 3 * time.Second
	}
	if c.MaxSendQueue == 0 {
		c.MaxSendQueue = 256
	}
	if c.MaxSendQueueBytes == 0 {
		c.MaxSendQueueBytes = 128 << 20
	}
	return c
}

func (c TCPConfig) maxQueueBytes() int { return c.MaxSendQueueBytes }

// TCP is a Transport over persistent TCP connections: one shared listener,
// one connection per peer pair regardless of how many logical names ride
// it, length-prefixed frames, an explicit per-peer connection state
// machine (see conn.go) with linktest heartbeats and capped jittered
// reconnect. Unlike the datagram transports its failure unit is the
// connection: frames are ordered and intact until a reset, and a reset
// loses whatever was queued behind it — WAN semantics, not per-datagram
// loss.
type TCP struct {
	cfg        TCPConfig
	advertised string
	dialer     Dialer
	listener   net.Listener
	done       chan struct{}

	mu       sync.Mutex
	handlers map[Addr]Handler
	routes   map[Addr]string  // logical name -> peer advertised address
	peers    map[string]*peer // advertised address -> connection machine

	closed atomic.Bool
	// wgMu is the barrier that makes Close race-free against goroutine
	// birth: goWG checks closed and Adds under it, Close flips closed and
	// then passes through it, so every goroutine is either counted before
	// the Wait or never starts.
	wgMu sync.Mutex
	wg   sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	sent       atomic.Int64
	delivered  atomic.Int64
	dropped    atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	recvErrors atomic.Int64
}

// NewTCP creates a TCP transport and binds its listener; configured peer
// addresses are resolved eagerly so typos surface at construction.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", cfg.Listen, err)
	}
	t := &TCP{
		cfg:      cfg,
		listener: ln,
		done:     make(chan struct{}),
		handlers: make(map[Addr]Handler),
		routes:   make(map[Addr]string, len(cfg.Peers)),
		peers:    make(map[string]*peer),
		dialer:   cfg.Dialer,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if t.dialer == nil {
		t.dialer = &net.Dialer{Timeout: cfg.DialTimeout}
	}
	t.advertised = cfg.Advertise
	if t.advertised == "" {
		t.advertised = ln.Addr().String()
	}
	for name, hostport := range cfg.Peers {
		if err := t.SetPeer(name, hostport); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	t.goWG(t.acceptLoop)
	return t, nil
}

// goWG starts fn tracked by the transport's WaitGroup, refusing (false)
// once Close has begun, so Close's Wait can never miss a late birth.
func (t *TCP) goWG(fn func()) bool {
	t.wgMu.Lock()
	defer t.wgMu.Unlock()
	if t.closed.Load() {
		return false
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		fn()
	}()
	return true
}

// backoff is the delay before dial attempt n (n ≥ 1 failures so far):
// exponential from ReconnectBase, capped at ReconnectCap, jittered to
// [½d, 1½d) so a restarted peer is not hit by synchronized redials.
func (t *TCP) backoff(attempts int) time.Duration {
	d := t.cfg.ReconnectBase
	for i := 1; i < attempts && d < t.cfg.ReconnectCap; i++ {
		d *= 2
	}
	if d > t.cfg.ReconnectCap {
		d = t.cfg.ReconnectCap
	}
	t.rngMu.Lock()
	j := time.Duration(t.rng.Int63n(int64(d)))
	t.rngMu.Unlock()
	return d/2 + j
}

// ListenAddr returns the listener's actual bound address — the way tests
// and cmd/node discover the port an ephemeral bind received.
func (t *TCP) ListenAddr() string { return t.listener.Addr().String() }

// LocalAddr returns the listener address for an attached logical name
// ("" when not attached): every attached name shares the one listener.
func (t *TCP) LocalAddr(a Addr) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.handlers[a]; !ok {
		return ""
	}
	return t.listener.Addr().String()
}

// SetPeer adds or replaces the routing entry for a logical peer name.
func (t *TCP) SetPeer(name Addr, hostport string) error {
	if _, err := net.ResolveTCPAddr("tcp", hostport); err != nil {
		return fmt.Errorf("transport: peer %s: %w", name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routes[name] = hostport
	return nil
}

// Attach implements Transport. TCP attaching is bookkeeping only — the
// listener is shared — so any number of logical names multiplex over the
// same socket per peer pair.
func (t *TCP) Attach(a Addr, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return ErrClosed
	}
	t.handlers[a] = h
	return nil
}

// Detach implements Transport: traffic addressed to a is discarded from
// now on, exactly as for a dead node. Connections stay up — other names
// share them.
func (t *TCP) Detach(a Addr) {
	t.mu.Lock()
	delete(t.handlers, a)
	t.mu.Unlock()
}

// Attached implements Transport.
func (t *TCP) Attached(a Addr) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.handlers[a]
	return ok
}

// Send implements Transport. The frame is queued whole, as one data
// frame, on the destination peer's connection machine — dialing it first
// if the link is down — and
// Send returns once that local fate is decided. Frames queued behind a
// link that never comes back, or beyond the queue bound, are dropped and
// counted: best-effort, like every transport here.
func (t *TCP) Send(from, to Addr, payload []byte) error {
	if len(payload) == 0 {
		return ErrEmptyPayload
	}
	if len(payload) > t.cfg.MaxFrame {
		return fmt.Errorf("%w: %d > max frame %d", ErrTooLarge, len(payload), t.cfg.MaxFrame)
	}
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return ErrClosed
	}
	if _, ok := t.handlers[from]; !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotAttached, from)
	}
	route, routed := t.routes[to]
	local := route == t.advertised || !routed
	if h, ok := t.handlers[to]; ok && local {
		// Destination lives in this process: short-circuit the network.
		// The source tag keeps the observed from-address shaped exactly
		// like a remote one, so Learn above cannot tell.
		t.mu.Unlock()
		t.sent.Add(1)
		t.delivered.Add(1)
		t.bytesSent.Add(int64(len(payload)))
		t.bytesRecv.Add(int64(len(payload)))
		cp := make([]byte, len(payload))
		copy(cp, payload)
		t.goWG(func() { h(Addr(t.advertised+"|"+string(from)), cp) })
		return nil
	}
	if local {
		// No route (or a route pointing back at us with nobody attached):
		// the frame is simply lost, as on a network with a bad route.
		t.mu.Unlock()
		t.sent.Add(1)
		t.dropped.Add(1)
		return nil
	}
	pc := t.peerLocked(route)
	t.mu.Unlock()
	t.sent.Add(1)
	pc.enqueue(encodeData(from, to, payload))
	return nil
}

// peerLocked returns (creating if needed) the connection machine for a
// peer's advertised address. Callers hold t.mu.
func (t *TCP) peerLocked(addr string) *peer {
	pc, ok := t.peers[addr]
	if !ok {
		pc = newPeer(t, addr)
		t.peers[addr] = pc
	}
	return pc
}

// peerFor is peerLocked behind the lock, refusing after Close.
func (t *TCP) peerFor(addr string) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil
	}
	return t.peerLocked(addr)
}

// acceptLoop owns the shared listener, handing each inbound connection to
// a handshake goroutine so a slow or hostile dialer cannot stall accepts.
func (t *TCP) acceptLoop() {
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			select {
			case <-t.done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		c := conn
		if !t.goWG(func() { t.handshakeIncoming(c) }) {
			_ = conn.Close()
			return
		}
	}
}

// handshakeIncoming runs the acceptor's side of the select exchange: read
// the select (which advertises the dialer's listener address — the
// identity everything is keyed by), break simultaneous-dial ties
// deterministically, ack, and install the connection on the peer machine.
func (t *TCP) handshakeIncoming(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(t.cfg.DialTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, body, err := readFrame(br, 4096)
	if err != nil || typ != frameSelect {
		_ = conn.Close()
		return
	}
	peerAdv, err := decodeControl(body)
	if err != nil || peerAdv == "" || peerAdv == t.advertised {
		_ = conn.Close()
		return
	}
	pc := t.peerFor(peerAdv)
	if pc == nil {
		_ = conn.Close()
		return
	}
	pc.mu.Lock()
	midDial := pc.state == stDialing || pc.state == stSelecting
	pc.mu.Unlock()
	if midDial && t.advertised < peerAdv {
		// Simultaneous dial: both sides raced a connection at each other.
		// The lower advertised address wins as dialer, so here — holding
		// the lower address, mid-dial — we refuse the peer's connection
		// and let ours carry the link. The peer's acceptor applies the
		// mirrored rule and adopts ours.
		_, _ = conn.Write(encodeControl(frameDeselect, "collision"))
		_ = conn.Close()
		return
	}
	if _, err := conn.Write(encodeControl(frameSelectAck, t.advertised)); err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	// If a connection is already installed, this one replaces it: a peer
	// that redials believes the old link dead (half-open from our side),
	// and believing it is the only evidence anyone will ever get.
	if !pc.install(conn, br) {
		_ = conn.Close()
	}
}

// deliver hands one inbound data frame to the attached handler for dst.
// The observed from-address is "peerAddr|srcName": the peer's advertised
// address (so Learn can route replies) tagged with the logical source (so
// senders stay distinguishable even when many share the stream).
func (t *TCP) deliver(peerAddr string, src, dst Addr, payload []byte) {
	t.mu.Lock()
	h, ok := t.handlers[dst]
	t.mu.Unlock()
	t.bytesRecv.Add(int64(len(payload)))
	if !ok {
		t.dropped.Add(1)
		return
	}
	t.delivered.Add(1)
	h(Addr(peerAddr+"|"+string(src)), payload)
}

// Learn implements Transport: name was observed sending from via, so
// route later frames for name to that peer. The via a handler sees is
// "peerAddr|srcName"; only the peer address routes. Attached (local)
// names are never overwritten.
func (t *TCP) Learn(name, via Addr) {
	host := string(via)
	if i := strings.IndexByte(host, '|'); i >= 0 {
		host = host[:i]
	}
	if host == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, local := t.handlers[name]; local {
		return
	}
	t.routes[name] = host
}

// Stats implements Transport. Conns carries the per-peer connection
// machine counters, keyed by peer advertised address.
func (t *TCP) Stats() Stats {
	st := Stats{
		Sent:       t.sent.Load(),
		Delivered:  t.delivered.Load(),
		Dropped:    t.dropped.Load(),
		BytesSent:  t.bytesSent.Load(),
		BytesRecv:  t.bytesRecv.Load(),
		RecvErrors: t.recvErrors.Load(),
	}
	t.mu.Lock()
	pcs := make(map[Addr]*peer, len(t.peers))
	for a, pc := range t.peers {
		pcs[Addr(a)] = pc
	}
	t.mu.Unlock()
	if len(pcs) > 0 {
		st.Conns = make(map[Addr]ConnStats, len(pcs))
		for a, pc := range pcs {
			st.Conns[a] = pc.snapshot()
		}
	}
	return st
}

// Quiesce implements Transport: it waits out frames queued on live
// (established or draining) connections. Frames parked behind a downed
// link don't block it — whether they ever go is the reconnect loop's
// business, and a real network gives no better promise.
func (t *TCP) Quiesce() {
	for {
		if t.closed.Load() {
			return
		}
		t.mu.Lock()
		pcs := make([]*peer, 0, len(t.peers))
		for _, pc := range t.peers {
			pcs = append(pcs, pc)
		}
		t.mu.Unlock()
		busy := false
		now := time.Now()
		for _, pc := range pcs {
			pc.mu.Lock()
			live := pc.state == stEstablished || pc.state == stDraining
			if live && len(pc.outq) > 0 && pc.stallUntil.Before(now) {
				busy = true
			}
			pc.mu.Unlock()
			if busy {
				break
			}
		}
		if !busy {
			return
		}
		select {
		case <-t.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// faultPeer resolves a fault-injection target — a logical name, a peer
// advertised address, or an observed "addr|src" — to its connection
// machine, if one exists.
func (t *TCP) faultPeer(a Addr) *peer {
	key := string(a)
	if i := strings.IndexByte(key, '|'); i >= 0 {
		key = key[:i]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.routes[Addr(key)]; ok {
		key = r
	}
	return t.peers[key]
}

// ResetPeer implements StreamFaulter: abruptly kill the live connection
// to the peer a routes to, as a mid-stream RST would. Reports whether
// there was a connection to kill.
func (t *TCP) ResetPeer(a Addr) bool {
	pc := t.faultPeer(a)
	return pc != nil && pc.reset()
}

// StallPeer implements StreamFaulter: freeze the write pump toward a for
// d — the injected half-open hang that only linktest misses reveal.
func (t *TCP) StallPeer(a Addr, d time.Duration) bool {
	pc := t.faultPeer(a)
	return pc != nil && pc.stall(d)
}

// Close implements Transport: the listener closes, every connection is
// torn down, and every goroutine the transport ever started is joined
// before Close returns, so no handler runs after it.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	// Pass through the barrier: after this, goWG refuses, so the Wait
	// below cannot miss a birth.
	t.wgMu.Lock()
	t.wgMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	close(t.done)
	_ = t.listener.Close()
	t.mu.Lock()
	pcs := make([]*peer, 0, len(t.peers))
	for _, pc := range t.peers {
		pcs = append(pcs, pc)
	}
	t.peers = make(map[string]*peer)
	t.handlers = make(map[Addr]Handler)
	t.mu.Unlock()
	for _, pc := range pcs {
		pc.close()
	}
	t.wg.Wait()
	return nil
}
