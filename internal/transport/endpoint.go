package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
)

// Options tunes the TCP substrate. The zero value gets sane defaults.
type Options struct {
	// SetupTimeout bounds mesh construction: every dial (with retry and
	// backoff) and every expected inbound handshake must complete within it.
	// Default 10s.
	SetupTimeout time.Duration
	// RoundTimeout bounds how long a party waits for the traffic of one
	// round (reads, writes and barrier waits). A peer that stalls longer is
	// treated as failed. Default 60s — generous, because the lock-step
	// barrier makes the slowest party set the pace for everyone. It is also
	// the budget for repairing a dropped connection when Reconnect is set.
	RoundTimeout time.Duration
	// Stats, when non-nil, receives transport-level frame and byte counts
	// (round frames plus hello/mirror overhead).
	Stats *metrics.WireStats

	// Dialer establishes outgoing connections; nil means DialRetry
	// (net.DialTimeout with jittered exponential backoff until the
	// deadline). The chaos layer substitutes a dialer to delay or refuse
	// connection establishment.
	Dialer func(addr string, deadline time.Time) (net.Conn, error)
	// WrapConn, when non-nil, wraps every *outgoing* connection of an
	// ordered link (from → to) right after it is dialed — initial dials and
	// reconnects alike. Every link has exactly one dialing side, so a write
	// wrapper here observes all of the link's traffic; internal/chaos uses
	// it to inject latency, stalls, partitions and drops at the net.Conn
	// boundary.
	WrapConn func(from, to sim.PartyID, conn net.Conn) net.Conn
	// Reconnect enables the recovery path: a sender whose connection dies
	// redials with exponential backoff, identifies itself with a resume
	// hello, learns from the peer's hello-ack how many frames were
	// delivered, and replays the rest from its resend buffer. Read-side
	// link failures become non-fatal (the dialing side repairs the link; a
	// genuinely dead peer surfaces as a barrier timeout). The resend buffer
	// is kept for the whole run — a party retains just what it sent, and a
	// crash-restarted peer rejoins by replaying that full history.
	Reconnect bool
	// Chaos, when non-nil, receives recovery counters (reconnects, resent
	// and suppressed frames) and per-round latency samples.
	Chaos *metrics.ChaosStats

	// CrashPlan schedules honest-party crash injection: party → round. When
	// the party reaches that round it dies abruptly in its send loop — the
	// round's frame out to the lower half of its peers, by ascending id, and
	// to nobody else — and the cluster supervisor restarts it with a fresh
	// machine from Restart. The restarted party replays its peers' resend
	// buffers to rebuild every inbox, re-steps its deterministic machine from
	// round 1, and suppresses the regenerated frames its peers already hold.
	// Implies Reconnect.
	CrashPlan map[sim.PartyID]int
	// Restart builds a fresh machine for a crash-restarted party; required
	// when CrashPlan is non-empty.
	Restart func(p sim.PartyID) (sim.Machine, error)
}

func (o Options) withDefaults() Options {
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 10 * time.Second
	}
	if o.RoundTimeout <= 0 {
		o.RoundTimeout = 60 * time.Second
	}
	if o.Stats == nil {
		o.Stats = &metrics.WireStats{}
	}
	if o.Dialer == nil {
		o.Dialer = DialRetry
	}
	if len(o.CrashPlan) > 0 {
		o.Reconnect = true
	}
	return o
}

// wrap applies the WrapConn hook, when configured.
func (o Options) wrap(from, to sim.PartyID, conn net.Conn) net.Conn {
	if o.WrapConn == nil {
		return conn
	}
	return o.WrapConn(from, to, conn)
}

// event is one item of an endpoint's merged receive stream: a frame, still
// encoded (the node loop hands a round to its driver as it came),
// attributed to its authenticated sender, or a connection-level failure.
type event struct {
	owner sim.PartyID // local party the frame was addressed to
	from  sim.PartyID // authenticated sender (fixed by the hello)
	body  []byte      // the frame: type tag, then its fields
	err   error
	// writeSide marks err as a failure of the owner→from connection. The
	// from→owner connection is a different socket, so — unlike a read-side
	// failure, which trails every frame the peer sent — it is unordered
	// against the frames still arriving from that peer.
	writeSide bool
}

// bufFrame is one unacknowledged frame in a sender's resend buffer.
type bufFrame struct {
	seq uint64
	b   []byte
}

// sender owns the write side of one ordered pair (from → to): a queue and a
// goroutine, so the round loop never blocks on TCP backpressure (the peer's
// reader always drains, which is what makes the full mesh deadlock-free).
// With Reconnect enabled it also owns the link's recovery state: a resend
// buffer of unacknowledged frames, the count of frames the peer is known to
// hold, and a sentinel goroutine that detects connection death promptly.
type sender struct {
	e        *endpoint
	from, to sim.PartyID
	ch       chan []byte   // encoded frames, in emission order
	redial   chan net.Conn // sentinel → writeLoop, carrying the dead conn
	done     chan struct{}

	conn net.Conn // owned by start until writeLoop spawns, then by writeLoop
	seq  uint64   // frames pushed through deliver, in emission order

	mu    sync.Mutex
	acked uint64     // frames the peer is known to have received
	buf   []bufFrame // unacknowledged frames, ascending seq
}

// linkState is the receive-side bookkeeping of one inbound link
// (remote from → local owner), surviving connection replacement: how many
// frames have been received and processed (the resume hello-ack value), and
// a generation counter that fences a superseded connection's read loop. The
// mutex spans count-and-emit so that after a generation bump no stale frame
// can slip into the event stream behind the replacement's replay.
type linkState struct {
	mu   sync.Mutex
	gen  int
	rcvd uint64
}

// endpoint hosts one or more local parties on a shared event stream: one
// party for an honest node, all corrupted parties for the adversary host.
// It owns the full-mesh edges touching its parties — an outgoing connection
// per (local, remote) ordered pair and an expected incoming connection per
// (remote, local) pair. Pairs between two local parties stay in-process.
type endpoint struct {
	n       int
	ids     []sim.PartyID
	local   map[sim.PartyID]bool
	addrs   []string
	session uint64
	opts    Options
	// resumed marks a crash-restarted endpoint: its initial dials carry the
	// resume flag, so peers ack their receive counts and the endpoint can
	// suppress regenerated frames they already hold.
	resumed bool

	events    chan event
	quit      chan struct{}
	closeOnce sync.Once
	drainOnce sync.Once
	draining  atomic.Bool

	senders map[sim.PartyID]map[sim.PartyID]*sender // [local from][remote to]

	mu          sync.Mutex
	conns       []net.Conn
	inbound     map[sim.PartyID]map[sim.PartyID]*linkState // [local owner][remote from]
	inboundLeft int
	inboundDone chan struct{}
	failed      error
}

// newEndpoint prepares (but does not start) an endpoint for the given local
// parties. It owns no listener: each local party's AcceptHost feeds it
// inbound connections through accept, so a listen address outlives the
// endpoint incarnations of a crash-restarted party.
func newEndpoint(ids []sim.PartyID, n int, addrs []string, session uint64, opts Options) *endpoint {
	e := &endpoint{
		n:           n,
		ids:         ids,
		local:       make(map[sim.PartyID]bool, len(ids)),
		addrs:       addrs,
		session:     session,
		opts:        opts.withDefaults(),
		events:      make(chan event, 64*n+256),
		quit:        make(chan struct{}),
		senders:     make(map[sim.PartyID]map[sim.PartyID]*sender, len(ids)),
		inbound:     make(map[sim.PartyID]map[sim.PartyID]*linkState, len(ids)),
		inboundDone: make(chan struct{}),
	}
	for _, id := range ids {
		e.local[id] = true
	}
	remotes := n - len(ids)
	e.inboundLeft = remotes * len(ids)
	if e.inboundLeft == 0 {
		close(e.inboundDone)
	}
	// The sender and inbound maps are fully shaped here and never mutated
	// again (only the structs they point to are), so accept-side read loops
	// may consult them without locking while start() is still dialing.
	for _, id := range ids {
		e.senders[id] = make(map[sim.PartyID]*sender, remotes)
		e.inbound[id] = make(map[sim.PartyID]*linkState, remotes)
		for to := sim.PartyID(0); int(to) < n; to++ {
			if e.local[to] {
				continue
			}
			e.senders[id][to] = &sender{e: e, from: id, to: to,
				ch: make(chan []byte, 256), redial: make(chan net.Conn, 1), done: make(chan struct{})}
		}
	}
	return e
}

// start builds the endpoint's side of the mesh: dials (with retry) for
// every outgoing ordered pair, then a barrier until every expected inbound
// connection has identified itself.
// start must run concurrently across endpoints — each one's dials are
// another's inbound handshakes.
func (e *endpoint) start() error {
	deadline := time.Now().Add(e.opts.SetupTimeout)
	for _, from := range e.ids {
		for to := sim.PartyID(0); int(to) < e.n; to++ {
			if e.local[to] {
				continue
			}
			conn, err := e.opts.Dialer(e.addrs[to], deadline)
			if err != nil {
				return fmt.Errorf("transport: party %d dialing party %d at %s: %w", from, to, e.addrs[to], err)
			}
			conn = e.opts.wrap(from, to, conn)
			e.track(conn)
			hb := encodeHello(hello{session: e.session, from: from, to: to, n: e.n, resume: e.resumed})
			conn.SetWriteDeadline(deadline)
			if _, err := conn.Write(hb); err != nil {
				return fmt.Errorf("transport: party %d handshake to party %d: %w", from, to, err)
			}
			e.opts.Stats.AddSent(len(hb))
			conn.SetWriteDeadline(time.Time{})
			s := e.senders[from][to]
			s.conn = conn
			if e.resumed {
				// The peer survived our crash: its ack tells us how many of
				// the frames we are about to regenerate it already holds.
				acked, err := readHelloAck(conn, deadline, e.opts.Stats)
				if err != nil {
					return fmt.Errorf("transport: party %d resuming to party %d: %w", from, to, err)
				}
				s.mu.Lock()
				s.acked = acked
				s.mu.Unlock()
			}
			if e.opts.Reconnect {
				go s.sentinel(conn)
			}
			go e.writeLoop(s)
		}
	}
	select {
	case <-e.inboundDone:
	case <-e.quit:
		return fmt.Errorf("transport: endpoint closed during setup")
	case <-time.After(time.Until(deadline)):
		e.mu.Lock()
		left, failed := e.inboundLeft, e.failed
		e.mu.Unlock()
		if failed != nil {
			return failed
		}
		return fmt.Errorf("transport: setup timed out with %d peer connections outstanding", left)
	}
	return nil
}

func (e *endpoint) track(conn net.Conn) {
	e.mu.Lock()
	e.conns = append(e.conns, conn)
	e.mu.Unlock()
}

func (e *endpoint) closed() bool {
	select {
	case <-e.quit:
		return true
	default:
		return false
	}
}

// accept is the AcceptHost handler seating this endpoint at owner's listen
// address. A closed endpoint (finished, or crashed and not yet replaced)
// refuses; the dialer's backoff retries.
func (e *endpoint) accept(owner sim.PartyID) func(net.Conn) {
	return func(conn net.Conn) {
		if e.closed() {
			conn.Close()
			return
		}
		e.track(conn)
		go e.handshakeIn(owner, conn)
	}
}

// handshakeIn validates a connection's hello and, on success, registers it
// as the unique authenticated link from its claimed sender and starts
// reading frames. A resume hello may replace an existing link's dead
// connection: the old read loop is fenced off by a generation bump, the
// receive count is acknowledged back to the dialer, and reading continues
// on the new connection. Anything invalid is dropped; the dialer notices
// via the setup barrier (or its reconnect retry loop) on its own side.
func (e *endpoint) handshakeIn(owner sim.PartyID, conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(e.opts.SetupTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := ReadFrame(br, MaxFrameSize)
	if err != nil {
		conn.Close()
		return
	}
	e.opts.Stats.AddRecv(len(body))
	h, err := parseHello(body)
	if err != nil {
		e.fail(fmt.Errorf("transport: party %d rejected inbound connection: %w", owner, err))
		conn.Close()
		return
	}
	switch {
	case h.session != e.session:
		err = fmt.Errorf("session %#x, want %#x", h.session, e.session)
	case h.to != owner:
		err = fmt.Errorf("addressed to party %d", h.to)
	case h.n != e.n:
		err = fmt.Errorf("peer configured for n = %d, want %d", h.n, e.n)
	case int(h.from) >= e.n:
		err = fmt.Errorf("sender %d out of range", h.from)
	case e.local[h.from]:
		err = fmt.Errorf("sender %d is local", h.from)
	case h.resume && !e.opts.Reconnect:
		err = fmt.Errorf("resume hello without reconnect support")
	}
	if err != nil {
		e.fail(fmt.Errorf("transport: party %d rejected hello: %w", owner, err))
		conn.Close()
		return
	}
	e.mu.Lock()
	ls := e.inbound[owner][h.from]
	fresh := ls == nil
	if fresh {
		ls = &linkState{}
		e.inbound[owner][h.from] = ls
		e.inboundLeft--
		if e.inboundLeft == 0 {
			close(e.inboundDone)
		}
	}
	e.mu.Unlock()
	if !fresh && !h.resume {
		e.fail(fmt.Errorf("transport: duplicate connection from party %d to party %d", h.from, owner))
		conn.Close()
		return
	}
	// Fence off any read loop still attached to the replaced connection,
	// then tell the dialer exactly how many frames made it through before
	// the link died, so its replay starts at the first missing one.
	ls.mu.Lock()
	ls.gen++
	gen, rcvd := ls.gen, ls.rcvd
	ls.mu.Unlock()
	if h.resume {
		ack := encodeHelloAck(rcvd)
		conn.SetWriteDeadline(time.Now().Add(e.opts.SetupTimeout))
		if _, err := conn.Write(ack); err != nil {
			conn.Close()
			return
		}
		e.opts.Stats.AddSent(len(ack))
		conn.SetWriteDeadline(time.Time{})
	}
	conn.SetReadDeadline(time.Time{})
	e.readLoop(owner, h.from, conn, br, ls, gen)
}

// fail records the first setup-phase failure so the barrier can report a
// cause instead of a bare timeout.
func (e *endpoint) fail(err error) {
	e.mu.Lock()
	if e.failed == nil {
		e.failed = err
	}
	e.mu.Unlock()
}

// readLoop turns one authenticated connection into events. It exits on any
// read error, or when a resume handshake supersedes its
// connection. Counting a frame and emitting it happen under the link lock,
// so the resume ack can never under-report and a stale loop can never emit
// behind a replacement's replay.
func (e *endpoint) readLoop(owner, from sim.PartyID, conn net.Conn, br *bufio.Reader, ls *linkState, gen int) {
	for {
		conn.SetReadDeadline(time.Now().Add(e.opts.RoundTimeout))
		body, err := ReadFrame(br, MaxFrameSize)
		if err != nil {
			e.linkDown(owner, from, fmt.Errorf("transport: link %d→%d: %w", from, owner, err))
			return
		}
		e.opts.Stats.AddRecv(len(body))
		ls.mu.Lock()
		if ls.gen != gen {
			ls.mu.Unlock()
			return // superseded by a resume handshake; the new conn replays
		}
		ls.rcvd++
		e.emit(event{owner: owner, from: from, body: body})
		ls.mu.Unlock()
	}
}

// linkDown handles a read-side connection failure. Without Reconnect it is
// surfaced as an event (checkStalled turns it into a prompt error when the
// peer still owes a barrier). With Reconnect it is swallowed: repairing the
// link is the dialing side's job, and a peer that never comes back is
// caught by the round timeout.
func (e *endpoint) linkDown(owner, from sim.PartyID, err error) {
	if e.opts.Reconnect {
		return
	}
	e.emit(event{owner: owner, from: from, err: err})
}

func (e *endpoint) emit(ev event) {
	select {
	case e.events <- ev:
	case <-e.quit:
	}
}

// writeLoop drains a sender queue onto its connection. Frames are written
// unbuffered — they are small and loopback-cheap, and skipping bufio means
// a closed queue is fully flushed the moment the goroutine exits. On a
// write error it reconnects (when enabled) or reports the link dead and
// keeps draining so the round loop never blocks.
func (e *endpoint) writeLoop(s *sender) {
	defer close(s.done)
	failed := false
	for {
		select {
		case b, ok := <-s.ch:
			if !ok {
				return
			}
			if failed {
				continue
			}
			if !s.deliver(b) {
				failed = true
			}
		case c := <-s.redial:
			// A sentinel noticed the connection die before the next write
			// would have. Reconnect eagerly so the peer's missing frames
			// (and ours) are replayed without waiting for traffic — unless
			// the endpoint is draining, in which case the peer is
			// terminating and the link is done.
			if failed || c != s.conn || e.draining.Load() || e.closed() {
				continue
			}
			if !s.reconnect() {
				s.linkFailed(fmt.Errorf("transport: link %d→%d: reconnect failed", s.from, s.to))
				failed = true
			}
		case <-e.quit:
			return
		}
	}
}

// deliver pushes one frame through the link: assign its sequence number,
// suppress it if the peer already holds it (crash-restart replay), buffer
// it for resend, write it, and on failure run the reconnect path.
func (s *sender) deliver(b []byte) bool {
	e := s.e
	s.seq++
	if e.opts.Reconnect {
		if s.seq <= s.ackedNow() {
			// The peer received this frame from our pre-crash incarnation;
			// the regenerated copy must not be delivered twice.
			if e.opts.Chaos != nil {
				e.opts.Chaos.FramesSkip.Add(1)
			}
			return true
		}
		s.mu.Lock()
		s.buf = append(s.buf, bufFrame{seq: s.seq, b: b})
		s.mu.Unlock()
	}
	if err := s.write(b); err == nil {
		return true
	} else if !e.opts.Reconnect || e.draining.Load() {
		s.linkFailed(fmt.Errorf("transport: link %d→%d: %w", s.from, s.to, err))
		return false
	}
	if !s.reconnect() {
		s.linkFailed(fmt.Errorf("transport: link %d→%d: reconnect failed", s.from, s.to))
		return false
	}
	return true
}

func (s *sender) ackedNow() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// linkFailed reports an unrecoverable write-side failure; the round loop
// sees it via checkStalled or, at worst, the barrier timeout.
func (s *sender) linkFailed(err error) {
	s.e.emit(event{owner: s.from, from: s.to, err: err, writeSide: true})
}

func (s *sender) write(b []byte) error {
	s.conn.SetWriteDeadline(time.Now().Add(s.e.opts.RoundTimeout))
	if _, err := s.conn.Write(b); err != nil {
		return err
	}
	s.e.opts.Stats.AddSent(len(b))
	return nil
}

// send enqueues an encoded frame on the (from → to) link. Only the round
// loop calls it, so enqueues never race with shutdown's channel close.
func (e *endpoint) send(from, to sim.PartyID, b []byte) {
	select {
	case e.senders[from][to].ch <- b:
	case <-e.quit:
	}
}

// ship is a driver.Framer's send for local party from: the frame goes to
// remote party to, or with sim.Broadcast to every remote party, keep (when
// non-nil) permitting. The framer reuses its buffer and a sender keeps what
// it is handed for resends, so the frame is copied here, once for all its
// recipients.
func (e *endpoint) ship(from, to sim.PartyID, frame []byte, keep func(sim.PartyID) bool) {
	frame = append([]byte(nil), frame...)
	first, last := driver.Span(e.n, to)
	for p := first; p <= last; p++ {
		if !e.local[p] && (keep == nil || keep(p)) {
			e.send(from, p, frame)
		}
	}
}

// shutdown ends the endpoint. When graceful, queued frames are flushed
// first (each writer drains its closed queue before its connection dies),
// which is how a terminating party guarantees its final round frame reaches
// every peer before the FIN does. Otherwise it dies the way a process would:
// connections cut mid-stream, nothing flushed, no goodbye. The listen
// address is the party's AcceptHost's and outlives the endpoint either way.
func (e *endpoint) shutdown(graceful bool) {
	if graceful {
		e.drainOnce.Do(func() {
			e.draining.Store(true)
			for _, peers := range e.senders {
				for _, s := range peers {
					close(s.ch)
				}
			}
			flushed := time.After(e.opts.RoundTimeout)
			for _, peers := range e.senders {
				for _, s := range peers {
					select {
					case <-s.done:
					case <-flushed:
					}
				}
			}
		})
	}
	e.closeOnce.Do(func() {
		close(e.quit)
		e.mu.Lock()
		conns := e.conns
		e.conns = nil
		e.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
}
