package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// The mux hello opens a peer link:
//
//	FrameMuxHello | magic(4) | mux version(1) | u32(from) | u32(to) |
//	u32(n) | u64(deployment hash, big-endian)
//
// One duplex connection serves each unordered pair of parties — the lower id
// dials — so a 4-daemon cluster runs every session over 6 connections and a
// one-shot mesh of n parties runs over n(n−1)/2. The hash scopes the link to
// one deployment: a serving cluster's hash (internal/session) or a one-shot
// mesh's session id. Every later frame in either direction belongs to the
// link's user: FrameMuxSession envelopes on a serving link, round, mirror
// and count frames on the mesh.
//
// Links are generational: when one dies (peer crash, restart, network
// fault) the lower-id side redials with backoff and the higher-id side
// accepts a replacement, bumping the link generation so goroutines of the
// dead incarnation unwind without disturbing the new one. The user hears
// OnDown/OnUp transitions and decides what a replacement means for the
// frames that were in flight: the serving layer fails its sessions, the
// mesh resumes with a count exchange.
//
// Version 2 carries each session round as one wire.SessionRound frame;
// version 1 spoke SessionMsg and SessionEOR, which a version-2 daemon
// refuses, so the hello keeps a mixed fleet from pairing at all.
const muxVersion byte = 2

var muxMagic = [4]byte{'T', 'A', 'A', 'S'}

// MuxConfig configures one party's link set.
type MuxConfig struct {
	ID    sim.PartyID
	Addrs []string // one listen address per party, index = id
	// Hash is the deployment identity the hellos of a link must agree on.
	Hash         uint64
	SetupTimeout time.Duration // mesh establishment
	RoundTimeout time.Duration // write deadline of the flusher's blocking writes
	Dialer       func(addr string, deadline time.Time) (net.Conn, error)
	// WrapConn wraps every connection on both ends, each end with itself as
	// the writer (from): each side of a duplex link faults its own outbound
	// direction, so a chaos clause on (a, b) shapes a→b traffic no matter
	// which end dialed.
	WrapConn func(from, to sim.PartyID, conn net.Conn) net.Conn
	Stats    *metrics.ServeStats // batch and link counters; nil counts nothing
	// Redial makes the lower-id side restore a failed link; without it a link
	// that went down stays down.
	Redial bool
	// ReadOrdered makes a failed write leave the link to its reader, which
	// fails it behind every frame the peer sent before it hung up; without it
	// the write fails the link at once. The one-shot mesh needs it: a peer's
	// last frames and its hang-up arrive on the socket our write failed on.
	ReadOrdered bool

	// Handler receives every inbound frame body (type tag first), still
	// encoded, attributed to the peer its link's hello named (identified,
	// not authenticated; DESIGN §7) and stamped with the link generation it
	// was read on. It runs on the link's reader goroutine and may do
	// everything the frame causes short of blocking on a socket: decode it,
	// step what it completes, stage the resulting frames. The reader calls
	// FlushDry once its buffered input is used up, so what several frames of
	// one read staged goes out together. The handler may retain body (the
	// read arena hands out a fresh slice per frame). A non-nil error fails
	// the link.
	Handler func(from sim.PartyID, gen int, body []byte) error
	// OnDown reports a dead link (read or write failure after setup).
	OnDown func(peer sim.PartyID, err error)
	// OnUp reports each generation of a link coming up, the first included.
	OnUp func(peer sim.PartyID, gen int)
}

// Mux owns a party's peer links: the mesh handshake, one reader per link
// (handing frames to the handler), one flusher per link, and the redial
// loop that restores links the peer's restart tore down. It is the one peer
// link of both deployed fabrics: the serving daemon's and the one-shot
// mesh's.
//
// Outbound frames collect in per-link outboxes and leave in batched writes.
// The common write is made by whoever ran the handlers or engines that filled
// the outboxes, the moment it has no more input to run them on (FlushDry):
// one non-blocking write per link, so everything stepped since the last read
// — often several sessions' rounds — shares it. The flusher is the only
// goroutine that ever blocks on a socket: it takes what a try-write could
// not place, every link whose connection hides its descriptor, and frames
// enqueued outside any engine turn.
type Mux struct {
	id  sim.PartyID
	n   int
	cfg MuxConfig

	peers []*peerLink // by party id; nil at the mux's own (and at co-hosted parties)

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	flushWG   sync.WaitGroup // the flushers alone, so close can await their final drain

	// conns is every connection the mux has open — a handshake in flight or a
	// link's current generation — so shutdown can close them all. A
	// connection leaves the set where it is closed. mu also orders every
	// goroutine start against shutdown closing quit.
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// peerLink is one duplex link: the current connection (one generation at a
// time), the outbox, and the writer lock that orders the two kinds of writer
// the socket has.
type peerLink struct {
	m    *Mux
	peer sim.PartyID

	ready     chan struct{} // closed when the link first comes up
	readyOnce sync.Once

	mu        sync.Mutex
	conn      net.Conn
	sock      *sockWriter   // nil when conn hides its descriptor: flusher writes only
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

// NewMux prepares (but does not start) the link set of cfg.ID.
func NewMux(cfg MuxConfig) *Mux {
	n := len(cfg.Addrs)
	m := &Mux{
		id: cfg.ID, n: n, cfg: cfg,
		peers: make([]*peerLink, n),
		quit:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	for p := sim.PartyID(0); int(p) < n; p++ {
		if p == cfg.ID {
			continue
		}
		m.peers[p] = &peerLink{m: m, peer: p, ready: make(chan struct{}),
			kick: make(chan struct{}, 1)}
	}
	return m
}

// Start builds the mesh: dial higher-id peers, then wait until every link
// is up — the links from lower-id peers arrive through Accept, fed by the
// AcceptHost that owns the listen address. On success the per-link readers
// and flushers are running. Lower-id peers of a restarted party reach it by
// their own redial loops, so Start tolerates them arriving any time within
// SetupTimeout.
func (m *Mux) Start() error {
	deadline := time.Now().Add(m.cfg.SetupTimeout)
	for p, l := range m.peers {
		if l == nil || sim.PartyID(p) < m.id {
			continue
		}
		if err := m.dial(l.peer, deadline); err != nil {
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
			return fmt.Errorf("transport: party %d closed during setup", m.id)
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("transport: party %d: no link from party %d within %v", m.id, p, m.cfg.SetupTimeout)
		}
	}
	return nil
}

// dial connects to one higher-id peer and registers the link.
func (m *Mux) dial(p sim.PartyID, deadline time.Time) error {
	conn, err := m.cfg.Dialer(m.cfg.Addrs[p], deadline)
	if err != nil {
		return fmt.Errorf("transport: party %d dialing party %d at %s: %w", m.id, p, m.cfg.Addrs[p], err)
	}
	conn = m.wrap(p, conn)
	m.track(conn)
	hb := encodeMuxHello(m.id, p, m.n, m.cfg.Hash)
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(hb); err != nil {
		m.drop(conn)
		return fmt.Errorf("transport: party %d handshake to party %d: %w", m.id, p, err)
	}
	conn.SetWriteDeadline(time.Time{})
	if err := m.register(p, conn, bufio.NewReaderSize(conn, 64<<10), false); err != nil {
		m.drop(conn)
		return err
	}
	return nil
}

func (m *Mux) wrap(peer sim.PartyID, conn net.Conn) net.Conn {
	if m.cfg.WrapConn == nil {
		return conn
	}
	return m.cfg.WrapConn(m.id, peer, conn)
}

// track adds a connection to the open set. After shutdown took the set there
// is nobody left to close it, so it is closed here.
func (m *Mux) track(conn net.Conn) {
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
func (m *Mux) drop(conn net.Conn) {
	conn.Close()
	m.mu.Lock()
	delete(m.conns, conn)
	m.mu.Unlock()
}

// spawn runs f on a goroutine the shutdown waits for, unless the shutdown
// has begun.
func (m *Mux) spawn(f func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed() {
		return false
	}
	m.wg.Add(1)
	go func() { defer m.wg.Done(); f() }()
	return true
}

// Accept takes one inbound connection through the handshake: the handler
// of the party's AcceptHost. It never blocks; a closed mux refuses.
func (m *Mux) Accept(conn net.Conn) {
	m.track(conn)
	if !m.spawn(func() { m.handshakeIn(conn) }) {
		m.drop(conn)
	}
}

// handshakeIn validates an inbound hello and registers the connection as
// the unique link from its claimed (lower-id) peer. A hello for a link that
// is already up replaces it: the only legitimate source of this connection
// is the peer itself, so a duplicate means the peer restarted while our
// half of the old connection is still undead.
func (m *Mux) handshakeIn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(m.cfg.SetupTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := ReadFrame(br, MaxFrameSize)
	if err != nil {
		m.drop(conn)
		return
	}
	from, to, n, hash, err := parseMuxHello(body)
	switch {
	case err != nil:
	case to != m.id:
		err = fmt.Errorf("addressed to party %d", to)
	case from >= m.id || from < 0 || m.peers[from] == nil:
		err = fmt.Errorf("party %d must be dialed by this side", from)
	case n != m.n:
		err = fmt.Errorf("peer configured for n = %d, want %d", n, m.n)
	case hash != m.cfg.Hash:
		err = fmt.Errorf("deployment %#x, want %#x", hash, m.cfg.Hash)
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
func (m *Mux) register(peer sim.PartyID, conn net.Conn, br *bufio.Reader, replace bool) error {
	l := m.peers[peer]
	l.mu.Lock()
	if l.up && !replace {
		l.mu.Unlock()
		return fmt.Errorf("transport: duplicate link from party %d", peer)
	}
	// The generation's goroutines start before shutdown closes quit, or not
	// at all.
	m.mu.Lock()
	closed := m.closed()
	if !closed {
		m.wg.Add(2)
		m.flushWG.Add(1)
	}
	m.mu.Unlock()
	if closed {
		l.mu.Unlock()
		return fmt.Errorf("transport: party %d is closed", m.id)
	}
	l.markDownLocked()
	l.conn, l.sock = conn, newSockWriter(conn)
	l.gen++
	l.up = true
	l.genQuit = make(chan struct{})
	// Frames queued for the dead incarnation are stale: the user has heard
	// the link go down and owns what becomes of them. Carrying them over
	// would interleave two incarnations' traffic.
	l.pending, l.frames = l.pending[:0], 0
	// A redial ends here, not when its loop returns: OnUp below may see the
	// new generation fail, and that failure must be free to redial again.
	l.redialing = false
	gen, genQuit := l.gen, l.genQuit
	l.mu.Unlock()
	go m.readLoop(l, gen, br)
	go m.flushLoop(l, gen, genQuit, conn)
	l.readyOnce.Do(func() { close(l.ready) })
	if m.cfg.OnUp != nil && !m.closed() {
		m.cfg.OnUp(peer, gen)
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
func (m *Mux) linkFailed(l *peerLink, gen int, err error) {
	l.mu.Lock()
	if l.gen != gen || !l.up {
		l.mu.Unlock()
		return
	}
	l.markDownLocked()
	redial := m.cfg.Redial && l.peer > m.id && !l.redialing && !m.closed()
	if redial {
		l.redialing = true
	}
	l.mu.Unlock()
	if !m.closed() && m.cfg.OnDown != nil {
		m.cfg.OnDown(l.peer, err)
	}
	if s := m.cfg.Stats; s != nil {
		s.LinkDowns.Add(1)
	}
	if redial {
		m.spawn(func() { m.redialLoop(l) })
	}
}

// redialLoop restores a link to a higher-id peer with capped exponential
// backoff, giving up only when the mux closes. A restarting peer rebinds
// its listener late in recovery, so early attempts failing is the norm.
// The successful dial's register clears l.redialing.
func (m *Mux) redialLoop(l *peerLink) {
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
		if err := m.dial(l.peer, time.Now().Add(m.cfg.SetupTimeout)); err == nil {
			if s := m.cfg.Stats; s != nil {
				s.LinkRedials.Add(1)
			}
			return
		}
	}
}

// put appends one encoded frame to the outbox, copying it, so callers may
// reuse their encode buffers. It never blocks. An outbox that reaches a flush
// threshold goes to the flusher; so does, with wake set, one that was empty.
// Frames for a down link — or, with gen set, for a generation that is no
// longer the link's — are dropped and reported so: the user has heard the
// link go down.
func (l *peerLink) put(frame []byte, gen int, wake bool) bool {
	l.mu.Lock()
	if !l.up || (gen != 0 && gen != l.gen) {
		l.mu.Unlock()
		return false
	}
	first := l.frames == 0
	l.pending = append(l.pending, frame...)
	l.frames++
	ready := batchReady(l.frames, len(l.pending), flushOccupancy, maxBatchBytes)
	l.mu.Unlock()
	if ready || (first && wake) {
		l.wakeFlusher()
	}
	return true
}

func (l *peerLink) wakeFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Enqueue queues one frame for the peer — or, with sim.Broadcast, for every
// peer — and leaves writing it to the link's flusher: the call for frames
// that no engine turn produced (aborts, rejections), safe on any goroutine.
func (m *Mux) Enqueue(to sim.PartyID, frame []byte) { m.put(to, frame, true) }

// Stage queues one frame like Enqueue, without waking anybody: the call of a
// goroutine that is stepping engines and will FlushDry when it is through,
// and the send of every engine's driver.Framer.
func (m *Mux) Stage(to sim.PartyID, frame []byte) { m.put(to, frame, false) }

func (m *Mux) put(to sim.PartyID, frame []byte, wake bool) {
	first, last := driver.Span(m.n, to)
	for _, l := range m.peers[first : last+1] {
		if l != nil {
			l.put(frame, 0, wake)
		}
	}
}

// FlushDry writes every non-empty outbox from the calling goroutine, one
// write per link, and never waits for a socket. It is called where input
// ran dry — by a link reader whose buffer is used up, by any other goroutine
// at the end of a drain that stepped engines — and not at the end of each
// engine turn: two sessions' rounds that arrived in one read are both
// stepped before either is written, which is the cross-session batching the
// flusher used to provide (writing per turn measured 157 writes a session
// against 91, and a fifth more latency).
func (m *Mux) FlushDry() {
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
	if s := l.m.cfg.Stats; s != nil && n > 0 {
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
	if s := l.m.cfg.Stats; s != nil && frames > 0 {
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
func (m *Mux) flushLoop(l *peerLink, gen int, genQuit chan struct{}, conn net.Conn) {
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
			if !m.cfg.ReadOrdered {
				m.linkFailed(l, gen, fmt.Errorf("transport: link %d→%d: %w", m.id, l.peer, err))
			}
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
		tail = nil // a dead generation's: its user heard the link go down
	}
	l.tail = nil
	if len(tail) == 0 && frames == 0 {
		l.recycle(batch)
		return false, nil
	}
	conn.SetWriteDeadline(time.Now().Add(l.m.cfg.RoundTimeout))
	// Cleared again, or the try-writes that follow would find it expired.
	defer conn.SetWriteDeadline(time.Time{})
	s := l.m.cfg.Stats
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
// an idle link is healthy, and liveness is the user's (round timeouts).
func (m *Mux) readLoop(l *peerLink, gen int, br *bufio.Reader) {
	defer m.wg.Done()
	var arena ReadArena
	fail := func(err error) {
		if !m.closed() {
			m.linkFailed(l, gen, err)
		}
	}
	for {
		body, err := ReadFrameArena(br, &arena)
		if err != nil {
			fail(fmt.Errorf("transport: link %d→%d: %w", l.peer, m.id, err))
			return
		}
		if err := m.cfg.Handler(l.peer, gen, body); err != nil {
			fail(fmt.Errorf("transport: link %d→%d: %w", l.peer, m.id, err))
			return
		}
		// The next read goes to the socket: write what the frames of this one
		// staged before waiting on it.
		if br.Buffered() == 0 {
			m.FlushDry()
		}
	}
}

func (m *Mux) closed() bool {
	select {
	case <-m.quit:
		return true
	default:
		return false
	}
}

// Close tears the mux down gracefully: final flushes are triggered by quit,
// then the sockets die and every loop exits. Safe to call more than once.
func (m *Mux) Close() { m.shutdown(false) }

// Kill tears the mux down abruptly — sockets first, no final flush — the
// in-process stand-in for the process dying under kill -9. Peers observe
// exactly what a crash gives them: connections reset mid-stream.
func (m *Mux) Kill() { m.shutdown(true) }

func (m *Mux) shutdown(abrupt bool) {
	m.closeOnce.Do(func() {
		if abrupt {
			// Sockets die before quit: flushers wake to dead connections and
			// queued frames are lost, as they would be in a real crash.
			m.closeConns()
			m.closeQuit()
		} else {
			m.closeQuit()
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

func (m *Mux) closeQuit() {
	m.mu.Lock()
	close(m.quit)
	m.mu.Unlock()
}

func (m *Mux) closeConns() {
	m.mu.Lock()
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for c := range conns {
		c.Close()
	}
}

func encodeMuxHello(from, to sim.PartyID, n int, hash uint64) []byte {
	body := make([]byte, 0, 26)
	body = append(body, FrameMuxHello)
	body = append(body, muxMagic[:]...)
	body = append(body, muxVersion)
	body = wire.AppendU32(body, uint32(from))
	body = wire.AppendU32(body, uint32(to))
	body = wire.AppendU32(body, uint32(n))
	for shift := 56; shift >= 0; shift -= 8 {
		body = append(body, byte(hash>>shift))
	}
	return AppendFrame(nil, body)
}

func parseMuxHello(body []byte) (from, to sim.PartyID, n int, hash uint64, err error) {
	r := wire.NewReader(body)
	if r.Byte() != FrameMuxHello {
		r.Fail("not a mux hello")
	}
	if string(r.Bytes(4)) != string(muxMagic[:]) {
		r.Fail("bad magic")
	}
	if v := r.Byte(); v != muxVersion {
		r.Fail("mux version %d, want %d", v, muxVersion)
	}
	from, to, n, hash = sim.PartyID(r.ID()), sim.PartyID(r.ID()), r.ID(), r.U64()
	if err := r.End(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("transport: bad mux hello: %w", err)
	}
	return from, to, n, hash, nil
}
