package session

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// The mux hello opens a daemon-pair link:
//
//	FrameMuxHello | magic(4) | mux version(1) | u32(from) | u32(to) |
//	u32(n) | u64(cluster hash, big-endian)
//
// One duplex connection serves each unordered daemon pair — the lower id
// dials — so a 4-daemon cluster runs every session over 6 connections.
// All subsequent frames in both directions are FrameMuxSession envelopes
// around wire session bodies.
//
// Links are generational: when one dies (peer crash, restart, network
// fault) the lower-id side redials with backoff and the higher-id side
// accepts a replacement, bumping the link generation so goroutines of the
// dead incarnation unwind without disturbing the new one. The session
// layer hears onDown/onUp transitions and degrades admission rather than
// the whole daemon.
//
// Version 2 carries each session round as one wire.SessionRound frame;
// version 1 spoke SessionMsg and SessionEOR, which a version-2 daemon
// refuses, so the hello keeps a mixed fleet from pairing at all.
const muxVersion byte = 2

var muxMagic = [4]byte{'T', 'A', 'A', 'S'}

// mux owns a daemon's peer links: the mesh handshake, one reader per link
// (demultiplexing into the handler), one flusher per link, and the redial
// loop that restores links the peer's restart tore down.
//
// Outbound frames collect in per-link outboxes and leave in batched writes.
// The common write is made by whoever ran the engines that filled the
// outboxes, the moment it has no more input to run them on (flushDry): one
// non-blocking write per link, so everything stepped since the last read —
// often several sessions' rounds — shares it. The flusher is the only
// goroutine that ever blocks on a socket: it takes what a try-write could
// not place, every link whose connection hides its descriptor, and frames
// enqueued outside any engine turn.
type mux struct {
	id      sim.PartyID
	n       int
	addrs   []string
	cluster uint64
	opts    Options
	stats   *metrics.ServeStats

	// handler receives every inbound wire body, still encoded, attributed to
	// its authenticated peer. It runs on the link's reader goroutine and may
	// do everything the frame causes short of blocking on a socket: decode
	// it, step the engine it completes a barrier for, stage that engine's
	// sends. The reader calls flushDry once its buffered input is used up, so
	// what several frames of one read staged goes out together. The handler
	// may retain body (the read arena hands out a fresh slice per frame). A
	// non-nil error fails the link.
	handler func(from sim.PartyID, body []byte) error
	// onDown reports a dead link (read or write failure after setup).
	onDown func(peer sim.PartyID, err error)
	// onUp reports a link restored after a failure (and the initial mesh).
	onUp func(peer sim.PartyID)

	peers []*peerLink // by daemon id; nil at the mux's own
	ln    net.Listener

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	flushWG   sync.WaitGroup // the flushers alone, so close can await their final drain

	// conns is every connection the mux has open — a handshake in flight or a
	// link's current generation — so shutdown can close them all. A
	// connection leaves the set where it is closed.
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// peerLink is one duplex daemon-pair link: the current connection (one
// generation at a time), the outbox, and the writer lock that orders the two
// kinds of writer the socket has.
type peerLink struct {
	m    *mux
	peer sim.PartyID

	ready     chan struct{} // closed when the link first comes up
	readyOnce sync.Once

	mu        sync.Mutex
	conn      net.Conn
	sock      *sockWriter // nil when conn hides its descriptor: flusher writes only
	br        *bufio.Reader
	gen       int           // incremented per registered connection
	up        bool          // current generation is live
	genQuit   chan struct{} // closed when the current generation dies
	redialing bool          // a redial goroutine is already running

	pending []byte // concatenated encoded frames awaiting one batched write
	spare   []byte // last flushed batch, recycled to avoid regrowing pending
	frames  int
	kick    chan struct{} // capacity 1: the flusher has something to write

	// wmu is held across every write to the socket. The flusher takes it
	// with Lock and may sit in a blocked write under it; a try-write takes it
	// with TryLock — it must, because RawConn.Write takes the descriptor's
	// own write lock and would park behind that blocked write.
	wmu sync.Mutex
	// tail is what a try-write of generation tailGen could not place. It is
	// owed to the socket before anything newer, so while it stands the link
	// belongs to the flusher. Guarded by wmu.
	tail    []byte
	tailGen int
}

func newMux(id sim.PartyID, n int, addrs []string, cluster uint64, opts Options,
	handler func(from sim.PartyID, body []byte) error,
	onDown func(peer sim.PartyID, err error), onUp func(peer sim.PartyID)) *mux {
	m := &mux{
		id: id, n: n, addrs: addrs, cluster: cluster, opts: opts,
		stats: opts.Stats, handler: handler, onDown: onDown, onUp: onUp,
		peers: make([]*peerLink, n),
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	for p := sim.PartyID(0); int(p) < n; p++ {
		if p == id {
			continue
		}
		m.peers[p] = &peerLink{m: m, peer: p, ready: make(chan struct{}),
			kick: make(chan struct{}, 1)}
	}
	return m
}

// start builds the mesh over the given bound listener: accept links from
// lower-id peers, dial higher-id peers, then wait until every link is up.
// On success the per-link readers and flushers are running. Lower-id peers
// of a restarted daemon reach it by their own redial loops, so start
// tolerates them arriving any time within SetupTimeout.
func (m *mux) start(ln net.Listener) error {
	m.ln = ln
	deadline := time.Now().Add(m.opts.SetupTimeout)
	m.wg.Add(1)
	go m.acceptLoop(ln)
	for p := sim.PartyID(0); int(p) < m.n; p++ {
		if p <= m.id {
			continue
		}
		if err := m.dial(p, deadline); err != nil {
			return err
		}
	}
	for p, l := range m.peers {
		if l == nil {
			continue
		}
		select {
		case <-l.ready:
		case <-m.quit:
			return fmt.Errorf("session: daemon %d closed during setup", m.id)
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("session: daemon %d: no link from daemon %d within %v", m.id, p, m.opts.SetupTimeout)
		}
	}
	return nil
}

// dial connects to one higher-id peer and registers the link.
func (m *mux) dial(p sim.PartyID, deadline time.Time) error {
	conn, err := m.opts.Dialer(m.addrs[p], deadline)
	if err != nil {
		return fmt.Errorf("session: daemon %d dialing daemon %d at %s: %w", m.id, p, m.addrs[p], err)
	}
	conn = m.wrap(p, conn)
	m.track(conn)
	hb := encodeMuxHello(m.id, p, m.n, m.cluster)
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(hb); err != nil {
		m.drop(conn)
		return fmt.Errorf("session: daemon %d handshake to daemon %d: %w", m.id, p, err)
	}
	conn.SetWriteDeadline(time.Time{})
	if err := m.register(p, conn, bufio.NewReaderSize(conn, 64<<10), false); err != nil {
		m.drop(conn)
		return err
	}
	return nil
}

func (m *mux) wrap(peer sim.PartyID, conn net.Conn) net.Conn {
	if m.opts.WrapConn == nil {
		return conn
	}
	// Both ends wrap with themselves as the writer: each side of the duplex
	// link faults its own outbound direction, so a chaos latency clause on
	// (a, b) shapes a→b traffic no matter which end dialed.
	return m.opts.WrapConn(m.id, peer, conn)
}

// track adds a connection to the open set. After shutdown took the set there
// is nobody left to close it, so it is closed here.
func (m *mux) track(conn net.Conn) {
	m.mu.Lock()
	open := m.conns != nil
	if open {
		m.conns[conn] = struct{}{}
	}
	m.mu.Unlock()
	if !open {
		conn.Close()
	}
}

// drop closes a connection and takes it out of the open set.
func (m *mux) drop(conn net.Conn) {
	conn.Close()
	m.mu.Lock()
	delete(m.conns, conn)
	m.mu.Unlock()
}

func (m *mux) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by close()
		}
		m.track(conn)
		m.wg.Add(1)
		go m.handshakeIn(conn)
	}
}

// handshakeIn validates an inbound hello and registers the connection as
// the unique link from its claimed (lower-id) peer. A hello for a link that
// is already up replaces it: the only legitimate source of this connection
// is the peer itself, so a duplicate means the peer restarted while our
// half of the old connection is still undead.
func (m *mux) handshakeIn(conn net.Conn) {
	defer m.wg.Done()
	conn.SetReadDeadline(time.Now().Add(m.opts.SetupTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := transport.ReadFrame(br, transport.MaxFrameSize)
	if err != nil {
		m.drop(conn)
		return
	}
	from, to, n, cluster, err := parseMuxHello(body)
	switch {
	case err != nil:
	case to != m.id:
		err = fmt.Errorf("addressed to daemon %d", to)
	case from >= m.id || from < 0:
		err = fmt.Errorf("daemon %d must be dialed by this side", from)
	case n != m.n:
		err = fmt.Errorf("peer configured for n = %d, want %d", n, m.n)
	case cluster != m.cluster:
		err = fmt.Errorf("cluster %#x, want %#x", cluster, m.cluster)
	}
	if err != nil {
		m.drop(conn)
		return
	}
	conn.SetReadDeadline(time.Time{})
	// Re-wrap happens on our side too: the acceptor faults its own writes.
	// The wrapper is what the link holds and closes, so it is what is tracked.
	if wrapped := m.wrap(from, conn); wrapped != conn {
		m.mu.Lock()
		delete(m.conns, conn)
		m.mu.Unlock()
		m.track(wrapped)
		conn = wrapped
	}
	if err := m.register(from, conn, br, true); err != nil {
		m.drop(conn)
	}
}

// register installs a connection as the link's next generation and starts
// its reader and flusher. With replace set, a live previous generation is
// torn down first (peer-restart case); without it, a live link rejects the
// duplicate.
func (m *mux) register(peer sim.PartyID, conn net.Conn, br *bufio.Reader, replace bool) error {
	if m.closed() {
		return fmt.Errorf("session: daemon %d is closed", m.id)
	}
	l := m.peers[peer]
	l.mu.Lock()
	if l.up {
		if !replace {
			l.mu.Unlock()
			return fmt.Errorf("session: duplicate link from daemon %d", peer)
		}
		l.markDownLocked()
	}
	l.conn, l.br, l.sock = conn, br, newSockWriter(conn)
	l.gen++
	l.up = true
	l.genQuit = make(chan struct{})
	// Frames queued for the dead incarnation are stale: the sessions they
	// belonged to have been failed (or will resend via their own protocol
	// rounds). Carrying them over would interleave two incarnations' traffic.
	l.pending, l.frames = l.pending[:0], 0
	gen, genQuit := l.gen, l.genQuit
	l.mu.Unlock()
	m.wg.Add(2)
	m.flushWG.Add(1)
	go m.readLoop(l, gen, br)
	go m.flushLoop(l, gen, genQuit, conn)
	l.readyOnce.Do(func() { close(l.ready) })
	if m.onUp != nil && !m.closed() {
		m.onUp(peer)
	}
	return nil
}

// markDownLocked retires the current generation: the connection dies, its
// goroutines unwind (flushers via genQuit, readers via the closed socket),
// and queued frames are dropped. Caller holds l.mu.
func (l *peerLink) markDownLocked() {
	if !l.up {
		return
	}
	l.up = false
	close(l.genQuit)
	l.m.drop(l.conn)
	l.pending, l.frames = l.pending[:0], 0
}

// linkFailed handles a read or write failure on a specific generation. A
// stale generation (already replaced or already failed) is ignored. The
// lower-id side owns redialing, mirroring the initial mesh direction.
func (m *mux) linkFailed(l *peerLink, gen int, err error) {
	l.mu.Lock()
	if l.gen != gen || !l.up {
		l.mu.Unlock()
		return
	}
	l.markDownLocked()
	redial := l.peer > m.id && !l.redialing && !m.closed()
	if redial {
		l.redialing = true
	}
	l.mu.Unlock()
	if !m.closed() && m.onDown != nil {
		m.onDown(l.peer, err)
	}
	if s := m.stats; s != nil {
		s.LinkDowns.Add(1)
	}
	if redial {
		m.wg.Add(1)
		go m.redialLoop(l)
	}
}

// redialLoop restores a link to a higher-id peer with capped exponential
// backoff, giving up only when the mux closes. A restarting peer rebinds
// its listener late in recovery, so early attempts failing is the norm.
func (m *mux) redialLoop(l *peerLink) {
	defer m.wg.Done()
	defer func() {
		l.mu.Lock()
		l.redialing = false
		l.mu.Unlock()
	}()
	backoff := 25 * time.Millisecond
	for {
		select {
		case <-m.quit:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
		if err := m.dial(l.peer, time.Now().Add(m.opts.SetupTimeout)); err == nil {
			if s := m.stats; s != nil {
				s.LinkRedials.Add(1)
			}
			return
		}
	}
}

// put appends one encoded frame to the outbox, copying it, so callers may
// reuse their encode buffers. It never blocks. An outbox that reaches a flush
// threshold goes to the flusher; so does, with wake set, one that was empty.
// Frames for a down link are dropped — the session layer has already failed
// the affected sessions.
func (l *peerLink) put(frame []byte, wake bool) {
	l.mu.Lock()
	if !l.up {
		l.mu.Unlock()
		return
	}
	first := l.frames == 0
	l.pending = append(l.pending, frame...)
	l.frames++
	ready := batchReady(l.frames, len(l.pending), flushOccupancy, maxBatchBytes)
	l.mu.Unlock()
	if ready || (first && wake) {
		l.wakeFlusher()
	}
}

func (l *peerLink) wakeFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// enqueue queues one frame for the peer — or, with sim.Broadcast, for every
// peer — and leaves writing it to the link's flusher: the call for frames
// that no engine turn produced (aborts, rejections), safe on any goroutine.
func (m *mux) enqueue(to sim.PartyID, frame []byte) { m.put(to, frame, true) }

// stage queues one frame like enqueue, without waking anybody: the call of a
// goroutine that is stepping engines and will flushDry when it is through,
// and the send of every engine's driver.Framer.
func (m *mux) stage(to sim.PartyID, frame []byte) { m.put(to, frame, false) }

func (m *mux) put(to sim.PartyID, frame []byte, wake bool) {
	first, last := driver.Span(m.n, to)
	for _, l := range m.peers[first : last+1] {
		if l != nil {
			l.put(frame, wake)
		}
	}
}

// flushDry writes every non-empty outbox from the calling goroutine, one
// write per link, and never waits for a socket. It is called where input
// ran dry — by a link reader whose buffer is used up, by any other goroutine
// at the end of a drain that stepped engines — and not at the end of each
// engine turn: two sessions' rounds that arrived in one read are both
// stepped before either is written, which is the cross-session batching the
// flusher used to provide (writing per turn measured 157 writes a session
// against 91, and a fifth more latency).
func (m *mux) flushDry() {
	for _, l := range m.peers {
		if l != nil {
			l.tryFlush()
		}
	}
}

// tryFlush writes the outbox with one non-blocking write if the link is
// free for it, and hands it to the flusher otherwise: a connection without a
// descriptor, a writer already at work, an unwritten tail outstanding, or a
// socket that took only part of the batch.
func (l *peerLink) tryFlush() {
	l.mu.Lock()
	staged, sock := l.frames > 0, l.sock
	l.mu.Unlock()
	if !staged {
		return
	}
	if sock == nil || !l.wmu.TryLock() {
		l.wakeFlusher()
		return
	}
	// The writer lock is held from before the outbox is taken until its
	// bytes are with the socket or in the tail: writes leave in taking order.
	l.mu.Lock()
	gen := l.gen
	owed := l.frames > 0
	if !owed || l.sock != sock || (len(l.tail) > 0 && l.tailGen == gen) {
		// Written by somebody else meanwhile — or a new connection's, or
		// behind a tail: then it is the flusher's.
		l.mu.Unlock()
		l.wmu.Unlock()
		if owed {
			l.wakeFlusher()
		}
		return
	}
	batch, frames := l.takeLocked()
	l.mu.Unlock()
	l.countTaken(frames, len(batch))
	n := sock.write(batch)
	if s := l.m.stats; s != nil && n > 0 {
		s.Batches.Add(1)
		s.BatchesInline.Add(1)
	}
	if n == len(batch) {
		l.recycle(batch)
	} else {
		l.tail, l.tailGen = batch[n:], gen
	}
	l.wmu.Unlock()
	if n < len(batch) {
		l.wakeFlusher()
	}
}

// countTaken counts a batch's frames and bytes when it is taken for its
// write — before the write, so that by the time a frame can have had any
// effect at its receiver it has been counted.
func (l *peerLink) countTaken(frames, bytes int) {
	if s := l.m.stats; s != nil && frames > 0 {
		s.BatchFrames.Add(int64(frames))
		s.BatchBytes.Add(int64(bytes))
	}
}

// takeLocked swaps the outbox for the recycled spare. Caller holds l.mu.
func (l *peerLink) takeLocked() (batch []byte, frames int) {
	batch, frames = l.pending, l.frames
	l.pending, l.frames = l.spare[:0], 0
	l.spare = nil
	return batch, frames
}

const (
	// flushOccupancy hands an outbox to the flusher once this many frames are
	// staged on a link, without waiting for its stager to run dry: under load
	// the flusher is a second core doing writes.
	flushOccupancy = 32
	// maxBatchBytes does the same once a link's outbox reaches this size,
	// bounding batch memory under load.
	maxBatchBytes = 64 << 10
)

// batchReady reports whether the outbox has hit either flush threshold; a
// pure function so the table test can pin the decision without a cluster.
func batchReady(frames, bytes, occupancy, maxBytes int) bool {
	return frames >= occupancy || bytes >= maxBytes
}

// flushLoop is the link's fallback writer: it waits for a kick — an enqueue
// into an empty outbox, an outbox at a flush threshold, a try-write that
// could not finish the job — and writes whatever is owed, blocking if it
// must. Stale kicks (the frames they announced were already written) cost
// one no-op flush and are otherwise harmless, so the loop never tries to
// drain them. One flusher runs per link generation; genQuit retires it when
// the generation dies.
func (m *mux) flushLoop(l *peerLink, gen int, genQuit chan struct{}, conn net.Conn) {
	defer m.wg.Done()
	defer m.flushWG.Done()
	for {
		select {
		case <-l.kick:
		case <-genQuit:
			return
		case <-m.quit:
			l.flush(gen, conn) // best-effort final drain so queued decides reach peers
			return
		}
		stale, err := l.flush(gen, conn)
		if stale {
			// A replacement generation owns the outbox now; hand it the kick
			// this loop consumed so its flusher wakes, then retire.
			l.wakeFlusher()
			return
		}
		if err != nil {
			m.linkFailed(l, gen, fmt.Errorf("session: link %d→%d: %w", m.id, l.peer, err))
			return
		}
	}
}

// flush is the flusher's blocking write: first the tail a try-write left,
// then the outbox. The flushed buffer is recycled as the next pending
// buffer, so a steady-state link reuses two batch buffers forever. A stale
// generation's flush is a silent no-op: the outbox now belongs to the
// replacement.
func (l *peerLink) flush(gen int, conn net.Conn) (stale bool, err error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	if l.gen != gen {
		l.mu.Unlock()
		return true, nil
	}
	batch, frames := l.takeLocked()
	l.mu.Unlock()
	l.countTaken(frames, len(batch))
	tail := l.tail
	if l.tailGen != gen {
		tail = nil // a dead generation's: its sessions have been failed
	}
	l.tail = nil
	if len(tail) == 0 && frames == 0 {
		l.recycle(batch)
		return false, nil
	}
	conn.SetWriteDeadline(time.Now().Add(l.m.opts.RoundTimeout))
	// Cleared again, or the try-writes that follow would find it expired.
	defer conn.SetWriteDeadline(time.Time{})
	s := l.m.stats
	for _, b := range [2][]byte{tail, batch} {
		if len(b) == 0 {
			continue
		}
		if _, err := conn.Write(b); err != nil {
			return false, err
		}
		if s != nil {
			s.Batches.Add(1)
			s.BatchesDeferred.Add(1)
		}
	}
	l.recycle(batch)
	return false, nil
}

func (l *peerLink) recycle(batch []byte) {
	l.mu.Lock()
	if l.spare == nil {
		l.spare = batch[:0]
	}
	l.mu.Unlock()
}

// readLoop turns one link generation into handler calls. No read deadline:
// an idle link is healthy (no sessions in flight), and per-session liveness
// is the engines' round timeout.
func (m *mux) readLoop(l *peerLink, gen int, br *bufio.Reader) {
	defer m.wg.Done()
	var arena transport.ReadArena
	fail := func(err error) {
		if !m.closed() {
			m.linkFailed(l, gen, err)
		}
	}
	for {
		body, err := transport.ReadFrameArena(br, &arena)
		if err != nil {
			fail(fmt.Errorf("session: link %d→%d: %w", l.peer, m.id, err))
			return
		}
		if body[0] != transport.FrameMuxSession {
			fail(fmt.Errorf("session: link %d→%d: unexpected frame type 0x%02x", l.peer, m.id, body[0]))
			return
		}
		if err := m.handler(l.peer, body[1:]); err != nil {
			fail(fmt.Errorf("session: link %d→%d: %w", l.peer, m.id, err))
			return
		}
		// The next read goes to the socket: write what the frames of this one
		// staged before waiting on it.
		if br.Buffered() == 0 {
			m.flushDry()
		}
	}
}

func (m *mux) closed() bool {
	select {
	case <-m.quit:
		return true
	default:
		return false
	}
}

// close tears the mux down gracefully: final flushes are triggered by quit,
// then the sockets die and every loop exits. Safe to call more than once.
func (m *mux) close() { m.shutdown(false) }

// kill tears the mux down abruptly — sockets first, no final flush — the
// in-process stand-in for the process dying under kill -9. Peers observe
// exactly what a crash gives them: connections reset mid-stream.
func (m *mux) kill() { m.shutdown(true) }

func (m *mux) shutdown(abrupt bool) {
	m.closeOnce.Do(func() {
		if abrupt {
			// Sockets die before quit: flushers wake to dead connections and
			// queued frames are lost, as they would be in a real crash.
			m.closeConns()
			close(m.quit)
		} else {
			close(m.quit)
			// Wait for every flusher's final drain before the sockets close
			// under them: decides queued by terminal engines must hit the wire,
			// or a peer mid-assembly loses them and hangs until its drain
			// deadline. The writes are bounded by the usual write deadline, so
			// this cannot block shutdown indefinitely.
			m.flushWG.Wait()
			m.closeConns()
		}
	})
	m.wg.Wait()
}

func (m *mux) closeConns() {
	if m.ln != nil {
		m.ln.Close()
	}
	m.mu.Lock()
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for c := range conns {
		c.Close()
	}
}

// sessionFrame builds one mux session frame — the length-prefixed
// FrameMuxSession envelope around the payload's wire encoding,
// byte-identical to transport.AppendFrame over the assembled body — ready
// for enqueue. The returned slice is immutable by convention: broadcasts
// share it across links. (A round's frame is the driver's, not built here.)
func sessionFrame(payload any) ([]byte, error) {
	sz, err := wire.EncodedSize(payload)
	if err != nil {
		return nil, err
	}
	dst := wire.AppendUvarint(make([]byte, 0, sz+4), uint64(sz+1))
	return wire.Append(append(dst, transport.FrameMuxSession), payload)
}

func encodeMuxHello(from, to sim.PartyID, n int, cluster uint64) []byte {
	body := make([]byte, 0, 26)
	body = append(body, transport.FrameMuxHello)
	body = append(body, muxMagic[:]...)
	body = append(body, muxVersion)
	body = wire.AppendU32(body, uint32(from))
	body = wire.AppendU32(body, uint32(to))
	body = wire.AppendU32(body, uint32(n))
	for shift := 56; shift >= 0; shift -= 8 {
		body = append(body, byte(cluster>>shift))
	}
	return transport.AppendFrame(nil, body)
}

func parseMuxHello(body []byte) (from, to sim.PartyID, n int, cluster uint64, err error) {
	fail := func(msg string) (sim.PartyID, sim.PartyID, int, uint64, error) {
		return 0, 0, 0, 0, fmt.Errorf("session: bad mux hello: %s", msg)
	}
	if len(body) < 1 || body[0] != transport.FrameMuxHello {
		return fail("not a mux hello")
	}
	b := body[1:]
	if len(b) != 4+1+4+4+4+8 {
		return fail("wrong length")
	}
	if [4]byte(b[:4]) != muxMagic {
		return fail("bad magic")
	}
	if b[4] != muxVersion {
		return fail(fmt.Sprintf("mux version %d, want %d", b[4], muxVersion))
	}
	b = b[5:]
	f, b, _ := wire.ConsumeU32(b)
	t, b, _ := wire.ConsumeU32(b)
	nv, b, _ := wire.ConsumeU32(b)
	if f > wire.MaxIDValue || t > wire.MaxIDValue || nv > wire.MaxIDValue {
		return fail("id out of range")
	}
	for _, x := range b {
		cluster = cluster<<8 | uint64(x)
	}
	return sim.PartyID(f), sim.PartyID(t), int(nv), cluster, nil
}
