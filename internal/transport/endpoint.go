package transport

import (
	"fmt"
	"net"
	"slices"
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
	// round (barrier waits, and every blocking write). A peer that stalls
	// longer is treated as failed. Default 60s — generous, because the
	// lock-step barrier makes the slowest party set the pace for everyone.
	// With Reconnect it is also what a peer that never comes back costs.
	RoundTimeout time.Duration
	// Stats, when non-nil, receives transport-level frame and byte counts
	// (round frames plus mirror and count overhead).
	Stats *metrics.WireStats

	// Dialer establishes outgoing connections; nil means DialRetry
	// (net.DialTimeout with jittered exponential backoff until the
	// deadline). The chaos layer substitutes a dialer to delay or refuse
	// connection establishment.
	Dialer func(addr string, deadline time.Time) (net.Conn, error)
	// WrapConn, when non-nil, wraps every connection of the mesh on each of
	// its two ends, right after it is dialed or its hello is accepted —
	// initial links and reconnects alike — with that end as from: each end
	// wraps its own writes, so a write wrapper on (from, to) observes all of
	// from's traffic to to, whichever end dialed. internal/chaos uses it to
	// inject latency, stalls, partitions and drops at the net.Conn boundary.
	WrapConn func(from, to sim.PartyID, conn net.Conn) net.Conn
	// Reconnect enables link resume: the lower id of a pair redials a
	// failed link with backoff, and on every link generation both ends send
	// how many data frames they have received from the other and resend
	// everything past the other's count. Link failures become non-fatal (a
	// genuinely dead peer surfaces as a barrier timeout). A party retains
	// every data frame it sent for the whole run, which is what it resends
	// from.
	Reconnect bool
	// Chaos, when non-nil, receives recovery counters (reconnects and
	// resent frames) and per-round latency samples.
	Chaos *metrics.ChaosStats
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
	return o
}

// event is one item of an endpoint's merged receive stream: a data frame,
// still encoded (the node loop hands a round to its driver as it came),
// attributed to the sender its link's hello named; a link failure its
// reader met behind every frame the peer sent; or, with neither, the peer's
// bye.
type event struct {
	owner sim.PartyID // local party the frame was addressed to
	from  sim.PartyID // sender the hello named (identified, not authenticated)
	body  []byte      // the frame: type tag, then its fields
	err   error
}

// pipe is the mesh's resume state of one (local party, peer) pair, on top of
// whatever connection the link currently has. Data frames — rounds and
// mirrors — are numbered in staging order on each side. On every link
// generation both ends send a count frame first, carrying how many data
// frames they have received; each holds its data until the other's count
// arrives, then stages everything past it. That one rule resends what a
// dropped connection lost.
type pipe struct {
	// rmu orders the receive side: the count a generation announces against
	// the frames read on the generations before it.
	rmu  sync.Mutex
	rcvd uint64 // data frames handed to the node

	smu sync.Mutex
	// gen is the link generation the pipe is attached to, written under both
	// locks: frames read on older generations are fenced off, data is staged
	// on this one only.
	gen   int
	open  bool   // the peer's count for gen has arrived: data flows
	fin   bool   // this side finished: a bye follows its data on every generation
	sent  uint64 // data frames staged, the last one's number
	wrote uint64 // highest data frame the peer has held or been handed
	// kept holds copies of data frames, kept[i] frame i+1: all of them under
	// Reconnect, otherwise just those waiting for the one count there is.
	kept [][]byte

	// done is set once the peer owes nothing and needs nothing more: it said
	// bye, or, without Reconnect, its link failed. It is what finish waits
	// for, and a peer that said bye is neither sent data nor redialed.
	done atomic.Bool
}

// endpoint hosts one or more local parties on a shared event stream: one
// party for an honest node, all corrupted parties for the adversary host.
// Each local party has its own link set (a Mux) to the remote parties;
// pairs of local parties stay in-process.
type endpoint struct {
	n       int
	addrs   []string
	session uint64
	opts    Options
	links   map[sim.PartyID]*Mux    // per local party
	pipes   map[sim.PartyID][]*pipe // [local owner][remote peer]

	events    chan event
	failed    map[sim.PartyID]error // first link failure per peer, as the node loop met it
	quit      chan struct{}
	closeOnce sync.Once
}

// newEndpoint prepares (but does not start) an endpoint for the given local
// parties. It owns no listener: each local party's AcceptHost feeds its
// links' Accept; a closed endpoint's links refuse.
func newEndpoint(ids []sim.PartyID, n int, addrs []string, session uint64, opts Options) *endpoint {
	e := &endpoint{
		n:       n,
		addrs:   addrs,
		session: session,
		opts:    opts.withDefaults(),
		links:   make(map[sim.PartyID]*Mux, len(ids)),
		pipes:   make(map[sim.PartyID][]*pipe, len(ids)),
		events:  make(chan event, 64*n+256),
		failed:  make(map[sim.PartyID]error),
		quit:    make(chan struct{}),
	}
	for _, id := range ids {
		pipes := make([]*pipe, n)
		for p := range pipes {
			pipes[p] = &pipe{}
		}
		m := NewMux(MuxConfig{
			ID: id, Addrs: addrs, Hash: session,
			SetupTimeout: e.opts.SetupTimeout, RoundTimeout: e.opts.RoundTimeout,
			WrapConn: e.opts.WrapConn, Redial: e.opts.Reconnect, ReadOrdered: true,
			// A peer that said bye is gone once its link closes: refused
			// at once, a redial cannot outlast the shutdown by retrying.
			Dialer: func(addr string, deadline time.Time) (net.Conn, error) {
				if p := slices.Index(addrs, addr); p >= 0 && pipes[p] != nil && pipes[p].done.Load() {
					return nil, fmt.Errorf("transport: party %d said bye", p)
				}
				return e.opts.Dialer(addr, deadline)
			},
			Handler: func(from sim.PartyID, gen int, body []byte) error { return e.receive(id, from, gen, body) },
			OnDown:  func(peer sim.PartyID, err error) { e.down(id, peer, err) },
			OnUp:    func(peer sim.PartyID, gen int) { e.receive(id, peer, gen, nil) },
		})
		for _, c := range ids {
			m.peers[c], pipes[c] = nil, nil // co-hosted: no link
		}
		e.links[id], e.pipes[id] = m, pipes
	}
	return e
}

// start brings every local party's links up: dials to higher ids, then a
// barrier until every link is up. It must run concurrently across
// endpoints — each one's dials are another's inbound handshakes.
func (e *endpoint) start() error {
	for _, m := range e.links {
		if err := m.Start(); err != nil {
			return err
		}
	}
	return nil
}

// attach moves the pipe to link generation gen: data waits for the peer's
// count, and the count of what has been received so far — fixed here,
// under rmu, so no frame of an older generation can still slip in behind
// it — is the generation's first frame. Caller holds p.rmu.
func (e *endpoint) attach(owner, peer sim.PartyID, p *pipe, gen int) {
	p.smu.Lock()
	defer p.smu.Unlock()
	p.gen, p.open = gen, false
	e.stage(owner, peer, gen, encodeCount(p.rcvd), true)
}

// receive is the link handler of local party owner, and with a nil body
// its link-up hook: a generation attaches at whichever comes first.
func (e *endpoint) receive(owner, from sim.PartyID, gen int, body []byte) error {
	p := e.pipes[owner][from]
	p.rmu.Lock()
	defer p.rmu.Unlock()
	if gen < p.gen {
		return nil // read off a replaced connection: uncounted, so the peer resends it
	}
	if gen > p.gen {
		e.attach(owner, from, p, gen)
	}
	if body == nil {
		return nil
	}
	e.opts.Stats.AddRecv(len(body))
	switch body[0] {
	case frameCount:
		acked, err := parseCount(body)
		if err != nil {
			return err
		}
		return e.resume(owner, from, p, acked)
	case frameBye:
		e.settle(owner, from)
		return nil
	}
	// Counted and handed on under rmu: the hand-off may wait for the node
	// loop, but a replacement's count must not be fixed between the two.
	p.rcvd++
	select {
	case e.events <- event{owner: owner, from: from, body: body}:
	case <-e.quit:
	}
	return nil
}

// resume opens the pipe's generation on the peer's count: kept frames the
// peer holds are skipped, the rest are staged, and a finished side's bye
// follows them. Caller holds p.rmu.
func (e *endpoint) resume(owner, peer sim.PartyID, p *pipe, acked uint64) error {
	p.smu.Lock()
	defer p.smu.Unlock()
	if p.open {
		return fmt.Errorf("transport: a second count from party %d on one link generation", peer)
	}
	p.open = true
	c := e.opts.Chaos
	if c != nil && p.gen > 1 {
		c.Reconnects.Add(1)
	}
	for i, f := range p.kept {
		seq := uint64(i) + 1
		if seq <= acked {
			continue
		}
		if !e.stage(owner, peer, p.gen, f, false) {
			return nil // replaced again: the next count resends the rest
		}
		if seq <= p.wrote && c != nil {
			c.FramesResent.Add(1)
			c.BytesResent.Add(int64(len(f)))
		}
		p.wrote = max(p.wrote, seq)
	}
	if !e.opts.Reconnect {
		p.kept = nil
	}
	if p.fin {
		e.stage(owner, peer, p.gen, byeFrame, false)
	}
	return nil
}

// send stages one data frame for peer: numbered, kept for resends, held
// until the peer's count has arrived — or dropped unnumbered, when the peer
// said bye and needs nothing more. frame must not change afterwards.
func (e *endpoint) send(owner, peer sim.PartyID, frame []byte) {
	p := e.pipes[owner][peer]
	p.smu.Lock()
	defer p.smu.Unlock()
	if p.done.Load() {
		return
	}
	p.sent++
	if e.opts.Reconnect || !p.open {
		p.kept = append(p.kept, frame)
	}
	if p.open && e.stage(owner, peer, p.gen, frame, false) {
		p.wrote = p.sent
	}
}

// stage puts one frame for peer on link generation gen of owner's links, and
// counts it: a frame meant for one generation never leaves on its
// replacement's connection.
func (e *endpoint) stage(owner, peer sim.PartyID, gen int, frame []byte, wake bool) bool {
	if !e.links[owner].peers[peer].put(frame, gen, wake) {
		return false
	}
	e.opts.Stats.AddSent(len(frame))
	return true
}

// ship is a driver.Framer's send for local party from: the frame goes to
// remote party to, or with sim.Broadcast to every remote party, keep (when
// non-nil) permitting. The framer reuses its buffer and a pipe keeps what it
// is handed, so the frame is copied here, once for all its recipients.
func (e *endpoint) ship(from, to sim.PartyID, frame []byte, keep func(sim.PartyID) bool) {
	frame = append([]byte(nil), frame...)
	first, last := driver.Span(e.n, to)
	for p := first; p <= last; p++ {
		if e.pipes[from][p] != nil && (keep == nil || keep(p)) {
			e.send(from, p, frame)
		}
	}
}

// flush writes what the node loop staged: its dry point, before it waits.
func (e *endpoint) flush() {
	for _, m := range e.links {
		m.FlushDry()
	}
}

// wait runs the node loop's input until ready holds: it writes what is
// staged whenever input runs dry and hands every frame to handle. It fails
// on shutdown; on the timeout — RoundTimeout for the whole wait or, with
// idle, of silence; and on the link failure of a peer that owes what the
// wait is for. A failure of a peer that has delivered it is benign — a
// finished peer closes its connections while slower parties are still
// deciding — but is remembered for the waits after. what names the wait in
// its errors.
func (e *endpoint) wait(what string, idle bool, ready func() bool, handle func(event) error,
	owes func(sim.PartyID) bool) error {
	timeout := time.NewTimer(e.opts.RoundTimeout)
	defer timeout.Stop()
	for e.flush(); !ready(); {
		if len(e.events) == 0 {
			e.flush()
		}
		select {
		case ev := <-e.events:
			switch {
			case ev.err != nil:
				if e.failed[ev.from] == nil {
					e.failed[ev.from] = ev.err
				}
			case ev.body != nil: // not a bye
				if err := handle(ev); err != nil {
					return fmt.Errorf("transport: %s: %w", what, err)
				}
			}
			for p, err := range e.failed {
				if owes(p) {
					return fmt.Errorf("transport: %s: %w", what, err)
				}
			}
			if idle {
				if !timeout.Stop() {
					<-timeout.C
				}
				timeout.Reset(e.opts.RoundTimeout)
			}
		case <-timeout.C:
			return fmt.Errorf("transport: %s: timed out after %v", what, e.opts.RoundTimeout)
		case <-e.quit:
			// Shutdown (deployment abort or context cancellation) while
			// blocked: exit promptly instead of riding out the timeout.
			return fmt.Errorf("transport: %s: endpoint closed", what)
		}
	}
	return nil
}

// down reports a failed link to the node loop, after every frame its reader
// took in. With Reconnect it is swallowed: the lower id redials, the count
// exchange repairs the stream, and a peer that never comes back is caught
// by the round timeout. Without it the peer is settled: nothing more can
// come from it.
func (e *endpoint) down(owner, peer sim.PartyID, err error) {
	if e.opts.Reconnect {
		return
	}
	select {
	case e.events <- event{owner: owner, from: peer, err: err}:
	case <-e.quit:
	}
	e.settle(owner, peer)
}

// settle marks the pipe's peer done, once, and wakes the node loop.
func (e *endpoint) settle(owner, peer sim.PartyID) {
	if !e.pipes[owner][peer].done.Swap(true) {
		select {
		case e.events <- event{owner: owner, from: peer}:
		case <-e.quit:
		}
	}
}

// discard drops the backlog of data frames staged for a peer that
// announced its decision — what waits behind a write in progress, bar
// control frames (our announcement) — and renumbers the rest: the peer never
// saw the dropped ones, so its count keeps meaning our frames 1..k.
func (e *endpoint) discard(owner, peer sim.PartyID) {
	p, l := e.pipes[owner][peer], e.links[owner].peers[peer]
	p.smu.Lock()
	defer p.smu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wmu.TryLock() {
		l.wmu.Unlock()
		return // no write in progress: not a backlog
	}
	if p.gen != l.gen {
		return // a newer generation's outbox, holding nothing of ours yet
	}
	// keep has one entry per data frame in the outbox: they are the last the
	// pipe staged, wrote-len(keep)+1 .. wrote.
	var keep []bool
	out, frames := l.pending[:0], 0
	for rest := l.pending; len(rest) > 0; {
		_, control, size := FrameInfo(rest)
		if typ := headBody(rest)[0]; typ != frameCount && typ != frameBye {
			keep = append(keep, control)
		}
		if control {
			out = append(out, rest[:size]...) // a prefix of rest: never overtakes it
			frames++
		}
		rest = rest[size:]
	}
	l.pending, l.frames = out, frames
	if !e.opts.Reconnect {
		return // one generation, one count: nothing is numbered against again
	}
	// The outbox held frames first+1 .. wrote.
	first := int(p.wrote) - len(keep)
	kept := p.kept[:first]
	for i, k := range keep {
		if k {
			kept = append(kept, p.kept[first+i]) // never overtakes the read
		}
	}
	cut := p.wrote - uint64(len(kept))
	p.kept = append(kept, p.kept[p.wrote:]...)
	p.sent, p.wrote = p.sent-cut, p.wrote-cut
}

// finish ends the endpoint at the end of its run: a bye behind everything
// staged on every link, then a wait, at most RoundTimeout, for every peer's
// bye, then a graceful shutdown. A peer that said bye holds all it needs and
// writes nothing after it, so the close neither strands a peer nor resets a
// connection with input unread; a link down meanwhile is restored, and
// resumed with the bye last, while both ends wait.
func (e *endpoint) finish() {
	for owner, pipes := range e.pipes {
		for peer, p := range pipes {
			if p == nil {
				continue
			}
			p.smu.Lock()
			if p.fin = true; p.open {
				e.stage(owner, sim.PartyID(peer), p.gen, byeFrame, false)
			}
			p.smu.Unlock()
		}
	}
	settled := func() bool {
		for _, pipes := range e.pipes {
			for _, p := range pipes {
				if p != nil && !p.done.Load() {
					return false
				}
			}
		}
		return true
	}
	e.wait("finishing", false, settled, func(event) error { return nil }, func(sim.PartyID) bool { return false })
	e.shutdown(true)
}

// shutdown ends the endpoint. When graceful, staged frames are written
// first (each link's flusher drains the outbox before its connection dies),
// which is how a terminating party guarantees its bye reaches every peer
// before the FIN does. Otherwise it dies the way a process would:
// connections cut mid-stream, nothing flushed, no goodbye. The listen
// address is the party's AcceptHost's.
func (e *endpoint) shutdown(graceful bool) {
	e.closeOnce.Do(func() {
		close(e.quit) // first: a handler waiting on the event stream lets its reader go
		for _, m := range e.links {
			if graceful {
				m.Close()
			} else {
				m.Kill()
			}
		}
	})
}
