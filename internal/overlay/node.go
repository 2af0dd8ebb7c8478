package overlay

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// levent is one item of a node's merged event stream: a decoded payload
// frame with its raw bytes (kept for verbatim forwarding), an inbound
// handshake, or a link failure.
type levent struct {
	l   *link
	pay any
	raw []byte
	hs  *inbound
	err error
}

// inbound is a validated child handshake handed to the main loop, which
// owns registration and replay.
type inbound struct {
	conn net.Conn
	br   *bufio.Reader
	h    hello
}

// retFrame is one retained relay envelope, kept for handshake replay.
type retFrame struct {
	seq   uint64
	round int
	env   []byte
}

// upState is one round's cumulative barrier knowledge: the merged
// arrived/done bitmaps and the counts at the last up-frame sent, so growth
// (and only growth) propagates toward the root.
type upState struct {
	arrived, done     bitset
	sentArr, sentDone int
}

// node runs one party over the tree overlay.
type node struct {
	id        sim.PartyID
	n         int
	lay       Layout
	maxRounds int
	session   uint64
	addrs     []string
	opts      Options

	events    chan levent
	quit      chan struct{}
	closeOnce sync.Once

	links    map[sim.PartyID]*link
	parent   *link
	parentID sim.PartyID

	sendSeq  uint64
	have     []uint64
	retained [][]retFrame
	rd       *driver.Round
	ups      map[int]*upState
	downs    map[int]bitset
	lastDown int
}

func newNode(id sim.PartyID, lay Layout, machine sim.Machine, maxRounds int,
	session uint64, addrs []string, opts Options) *node {
	nd := &node{
		id: id, n: lay.N, lay: lay, maxRounds: maxRounds,
		session: session, addrs: addrs, opts: opts,
		events:   make(chan levent, 8*lay.N+64),
		quit:     make(chan struct{}),
		links:    make(map[sim.PartyID]*link, lay.MaxDegree()),
		parentID: lay.Parent(id),
		have:     make([]uint64, lay.N),
		retained: make([][]retFrame, lay.N),
		ups:      make(map[int]*upState),
		downs:    make(map[int]bitset),
	}
	// Unbounded window: replay-on-connect can hand a re-homed leaf more
	// than one round at once.
	nd.rd = driver.NewRound(id, lay.N, maxRounds, 0, machine, nd)
	return nd
}

func (nd *node) enqueue(ev levent) {
	select {
	case nd.events <- ev:
	case <-nd.quit:
		if ev.hs != nil {
			ev.hs.conn.Close()
		}
	}
}

func (nd *node) closed() bool {
	select {
	case <-nd.quit:
		return true
	default:
		return false
	}
}

// hasDown reports whether the round-r release has been recorded. Presence
// in the map is the signal — the stored bitmap itself is nil when no party
// had terminated by round r.
func (nd *node) hasDown(r int) bool {
	_, ok := nd.downs[r]
	return ok
}

// run executes the party in lock step:
//
//	step → flood relays → report up → await release → decide
//
// The release for round r is the root's down frame, which link FIFO
// guarantees arrives behind every round-r envelope — so the round-r mailbox
// is complete at the barrier, exactly the mesh transport's invariant.
func (nd *node) run() (*driver.Result, error) {
	defer nd.shutdown(false)
	if nd.parentID >= 0 {
		if err := nd.connectParent(time.Now().Add(nd.opts.SetupTimeout)); err != nil {
			return nil, fmt.Errorf("overlay: party %d joining: %w", nd.id, err)
		}
	}
	for {
		roundStart := time.Now()
		finished, err := nd.rd.Advance()
		if err != nil {
			return nil, fmt.Errorf("overlay: %w", err)
		}
		if finished {
			nd.shutdown(true)
			return nd.rd.Result(), nil
		}
		nd.prune()
		r := nd.rd.Round()
		if err := nd.awaitDown(r); err != nil {
			return nil, err
		}
		nd.opts.Stats.AddRoundLatency(time.Since(roundStart))
		nd.rd.Release(nd.downs[r].full(nd.n))
	}
}

// Emit floods one relay envelope per emitted message along every live link.
// A pure self-send never touches the wire, as in the mesh.
func (nd *node) Emit(round int, to sim.PartyID, payload any) error {
	if to == nd.id {
		return nil
	}
	body, err := wire.Encode(payload)
	if err != nil {
		return err
	}
	nd.sendSeq++
	env, err := wire.Encode(wire.RelayMsg{Origin: nd.id, Dest: to,
		Seq: nd.sendSeq, Round: round, Body: body})
	if err != nil {
		return err
	}
	nd.have[nd.id] = nd.sendSeq
	nd.retained[nd.id] = append(nd.retained[nd.id], retFrame{seq: nd.sendSeq, round: round, env: env})
	for _, l := range nd.links {
		l.send(env)
		nd.opts.Stats.Relayed.Add(1)
		nd.opts.Stats.RelayBytes.Add(int64(len(env)))
	}
	return nil
}

// EndRound records this node's own barrier contribution for round r and
// propagates it. The bit is set only after every round-r envelope is queued,
// so on every link the bit travels behind the frames it vouches for — the
// FIFO invariant the root's release depends on.
func (nd *node) EndRound(r int, done bool) error {
	u := nd.up(r)
	u.arrived.set(nd.id)
	if done {
		u.done.set(nd.id)
	}
	nd.propagate(r)
	return nil
}

func (nd *node) up(r int) *upState {
	u := nd.ups[r]
	if u == nil {
		u = &upState{}
		nd.ups[r] = u
	}
	return u
}

func (nd *node) propagate(r int) {
	if nd.id == Root {
		nd.checkRelease(r)
		return
	}
	nd.maybeUp(r)
}

// maybeUp sends the cumulative up-report for round r to the parent when it
// grew since the last send. Cumulative bitmaps make resends idempotent —
// the re-home path resends them wholesale.
func (nd *node) maybeUp(r int) {
	if nd.parent == nil {
		return // re-homing; the handshake replay will resend
	}
	u := nd.up(r)
	na, ndn := u.arrived.count(), u.done.count()
	if na <= u.sentArr && ndn <= u.sentDone {
		return
	}
	env, err := wire.Encode(wire.OverlayEOR{Round: r, Arrived: u.arrived.clone(), Done: u.done.clone()})
	if err != nil {
		return // unreachable: bitmaps are canonical by construction
	}
	u.sentArr, u.sentDone = na, ndn
	nd.parent.send(env)
	nd.opts.Stats.EORUp.Add(1)
}

// checkRelease (root only) floods the round-r release once every party's
// arrived bit is in. At that moment the root has accepted — and therefore
// already forwarded — every round-r envelope, so the release follows them
// down every link.
func (nd *node) checkRelease(r int) {
	u := nd.up(r)
	if nd.hasDown(r) || !u.arrived.full(nd.n) {
		return
	}
	done := bitset(u.done.clone())
	nd.downs[r] = done
	if r > nd.lastDown {
		nd.lastDown = r
	}
	env, err := wire.Encode(wire.OverlayEOR{Round: r, Down: true, Done: done.clone()})
	if err != nil {
		return // unreachable
	}
	for _, l := range nd.links {
		l.send(env)
		nd.opts.Stats.EORDown.Add(1)
	}
}

// awaitDown consumes events until the round-r release arrives (or, at the
// root, is produced). A leaf whose sub-leader goes silent for
// FailoverTimeout abandons it mid-wait.
func (nd *node) awaitDown(r int) error {
	deadline := time.NewTimer(roundTimeout)
	defer deadline.Stop()
	fo := time.NewTimer(nd.opts.FailoverTimeout)
	defer fo.Stop()
	lastParent := time.Now()
	for !nd.hasDown(r) {
		select {
		case ev := <-nd.events:
			if ev.err == nil && ev.l != nil && ev.l == nd.parent {
				lastParent = time.Now()
			}
			if err := nd.handle(ev); err != nil {
				return err
			}
		case <-fo.C:
			idle := time.Since(lastParent)
			if nd.parent != nil && nd.lay.IsSubleader(nd.parentID) && idle >= nd.opts.FailoverTimeout {
				stalled := nd.parent
				stalled.close()
				delete(nd.links, nd.parentID)
				nd.parent = nil
				if err := nd.rehome(fmt.Errorf("parent %d silent for %v at barrier %d", nd.parentID, idle, r)); err != nil {
					return err
				}
				lastParent = time.Now()
				fo.Reset(nd.opts.FailoverTimeout)
			} else if wait := nd.opts.FailoverTimeout - idle; wait > 0 {
				fo.Reset(wait)
			} else {
				fo.Reset(nd.opts.FailoverTimeout)
			}
		case <-deadline.C:
			return fmt.Errorf("overlay: party %d: round %d barrier timed out after %v", nd.id, r, roundTimeout)
		case <-nd.quit:
			return fmt.Errorf("overlay: party %d: node closed while waiting on round %d", nd.id, r)
		}
	}
	return nil
}

// handle applies one event. A frame or failure from a link that no longer
// owns its peer — superseded by a redial, or a parent abandoned by failover
// — is dropped: the replacement's handshake replay re-sends whatever such a
// frame carried.
func (nd *node) handle(ev levent) error {
	switch {
	case ev.hs != nil:
		return nd.acceptChild(ev.hs)
	case nd.links[ev.l.peer] != ev.l:
		return nil
	case ev.err != nil:
		return nd.linkDown(ev.l, ev.err)
	}
	switch m := ev.pay.(type) {
	case wire.RelayMsg:
		return nd.onRelay(ev.l, m, ev.raw)
	case wire.OverlayEOR:
		return nd.onEOR(ev.l, m)
	default:
		return fmt.Errorf("overlay: party %d: unexpected %T frame from party %d", nd.id, ev.pay, ev.l.peer)
	}
}

// onRelay is the flood step: accept exactly the next sequence per origin,
// deliver when addressed, forward everywhere but the arrival link. The
// strict watermark makes duplicates (re-homed paths, handshake replays)
// vanish at first contact and turns a genuine gap into a loud failure — on
// FIFO links with handshake replay, gaps can only mean a protocol bug.
func (nd *node) onRelay(l *link, m wire.RelayMsg, raw []byte) error {
	o := m.Origin
	if o < 0 || int(o) >= nd.n {
		return fmt.Errorf("overlay: party %d: relay origin %d out of range", nd.id, o)
	}
	switch {
	case m.Seq <= nd.have[o]:
		nd.opts.Stats.DedupDropped.Add(1)
		return nil
	case m.Seq > nd.have[o]+1:
		return fmt.Errorf("overlay: party %d: gap in origin %d relays: got seq %d, have %d",
			nd.id, o, m.Seq, nd.have[o])
	}
	nd.have[o] = m.Seq
	nd.retained[o] = append(nd.retained[o], retFrame{seq: m.Seq, round: m.Round, env: raw})
	nd.opts.Stats.Delivered.Add(1)
	if m.Dest == sim.Broadcast || m.Dest == nd.id {
		pay, err := wire.Decode(m.Body)
		if err != nil {
			return fmt.Errorf("overlay: party %d: relay body from origin %d: %w", nd.id, o, err)
		}
		if err := nd.rd.File(sim.Message{From: o, To: nd.id, Round: m.Round, Payload: pay}); err != nil {
			return fmt.Errorf("overlay: party %d: %w", nd.id, err)
		}
	}
	for _, l2 := range nd.links {
		if l2 != l {
			l2.send(raw)
			nd.opts.Stats.Relayed.Add(1)
			nd.opts.Stats.RelayBytes.Add(int64(len(raw)))
		}
	}
	return nil
}

func (nd *node) onEOR(l *link, m wire.OverlayEOR) error {
	if m.Down {
		if l != nd.parent {
			return fmt.Errorf("overlay: party %d: release frame from non-parent party %d", nd.id, l.peer)
		}
		return nd.onDown(m.Round, m.Done)
	}
	if l == nd.parent {
		return fmt.Errorf("overlay: party %d: up frame from parent %d", nd.id, l.peer)
	}
	u := nd.up(m.Round)
	ga := u.arrived.merge(m.Arrived)
	gd := u.done.merge(m.Done)
	if ga || gd {
		nd.propagate(m.Round)
	}
	return nil
}

// onDown records a release and forwards it to the subtree. First receipt
// only: replays may re-deliver a known release, and the subtree already has
// those.
func (nd *node) onDown(r int, done []byte) error {
	if nd.hasDown(r) {
		return nil
	}
	nd.downs[r] = bitset(done).clone()
	if r > nd.lastDown {
		nd.lastDown = r
	}
	env, err := wire.Encode(wire.OverlayEOR{Round: r, Down: true, Done: bitset(done).clone()})
	if err != nil {
		return fmt.Errorf("overlay: party %d: re-encoding release %d: %w", nd.id, r, err)
	}
	for _, l := range nd.links {
		if l != nd.parent {
			l.send(env)
			nd.opts.Stats.EORDown.Add(1)
		}
	}
	return nil
}

// linkDown handles a failed link. A dead parent triggers the failover
// search; a dead child is benign here — if it owed barrier bits it either
// re-homes (its own failover), redials, or the round times out.
func (nd *node) linkDown(l *link, err error) error {
	delete(nd.links, l.peer)
	l.close()
	if l == nd.parent {
		nd.parent = nil
		return nd.rehome(err)
	}
	return nil
}

// acceptChild registers a validated inbound handshake: ack with our
// watermarks, replay what the child lacks (frames first, then releases —
// bits never overtake the frames they account for), then start reading.
// A second handshake from the same peer supersedes the old link, which
// covers a child redialing before its dead connection is noticed.
func (nd *node) acceptChild(hs *inbound) error {
	h := hs.h
	if old := nd.links[h.from]; old != nil {
		old.close()
	}
	l := newLink(nd, h.from, hs.conn, hs.br)
	nd.links[h.from] = l
	nd.opts.Stats.TrackConns(len(nd.links))
	l.send(encodeAck(nd.have))
	nd.replayTo(l, h.have)
	nd.replayDowns(l, h.lastDown)
	l.startReader()
	return nil
}

// replayTo retransmits every retained envelope beyond the peer's watermark,
// per origin in sequence order. The peer's own origin is skipped — it
// originated those.
func (nd *node) replayTo(l *link, peerHave []uint64) {
	for o := 0; o < nd.n; o++ {
		if sim.PartyID(o) == l.peer {
			continue
		}
		w := peerHave[o]
		for _, f := range nd.retained[o] {
			if f.seq > w {
				l.send(f.env)
				nd.opts.Stats.Replayed.Add(1)
				nd.opts.Stats.Relayed.Add(1)
				nd.opts.Stats.RelayBytes.Add(int64(len(f.env)))
			}
		}
	}
}

// replayDowns retransmits the releases a rejoining child is missing, in
// round order, after replayTo's frames — same FIFO soundness as live flow.
func (nd *node) replayDowns(l *link, peerLastDown int) {
	rounds := make([]int, 0, len(nd.downs))
	for r := range nd.downs {
		if r > peerLastDown {
			rounds = append(rounds, r)
		}
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		env, err := wire.Encode(wire.OverlayEOR{Round: r, Down: true, Done: nd.downs[r].clone()})
		if err != nil {
			continue // unreachable
		}
		l.send(env)
		nd.opts.Stats.EORDown.Add(1)
	}
}

// connectParent establishes the uplink — dial nd.parentID, handshake with
// our watermarks, replay what the parent lacks, and resend our cumulative
// up-reports: the state transfer that makes a re-home invisible to the rest
// of the tree. It retries transient handshake failures until the deadline
// (a parent process not yet listening, a candidate that refuses). Each
// attempt is individually clamped so the loop re-checks quit often enough
// for an aborting cluster to reclaim the goroutine promptly.
func (nd *node) connectParent(deadline time.Time) error {
	backoff := 10 * time.Millisecond
	for {
		attempt := deadline
		if lim := time.Now().Add(time.Second); lim.Before(attempt) {
			attempt = lim
		}
		err := nd.joinParent(attempt)
		if err == nil {
			return nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return err
		}
		select {
		case <-nd.quit:
			return err
		case <-time.After(backoff):
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

func (nd *node) joinParent(deadline time.Time) error {
	addr := nd.addrs[nd.parentID]
	conn, err := transport.DialRetry(addr, deadline)
	if err != nil {
		return fmt.Errorf("dialing parent %d at %s: %w", nd.parentID, addr, err)
	}
	hb := transport.AppendFrame(nil, encodeHello(hello{session: nd.session, from: nd.id,
		to: nd.parentID, n: nd.n, branch: nd.lay.Branching, lastDown: nd.lastDown, have: nd.have}))
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(hb); err != nil {
		conn.Close()
		return fmt.Errorf("handshake to parent %d: %w", nd.parentID, err)
	}
	nd.opts.Wire.AddSent(len(hb))
	conn.SetWriteDeadline(time.Time{})
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(deadline)
	ab, err := transport.ReadFrame(br, transport.MaxFrameSize)
	if err != nil {
		conn.Close()
		return fmt.Errorf("reading ack from parent %d: %w", nd.parentID, err)
	}
	nd.opts.Wire.AddRecv(len(ab))
	conn.SetReadDeadline(time.Time{})
	parentHave, err := parseAck(ab, nd.n)
	if err != nil {
		conn.Close()
		return err
	}
	l := newLink(nd, nd.parentID, conn, br)
	nd.links[nd.parentID] = l
	nd.parent = l
	nd.opts.Stats.TrackConns(len(nd.links))
	nd.replayTo(l, parentHave)
	nd.resendUps()
	l.startReader()
	return nil
}

// resendUps pushes every retained cumulative up-report at the (new) parent,
// ascending by round. Merging is idempotent, so over-sending is safe; what
// matters is that the bits the dead parent swallowed reach the root again.
func (nd *node) resendUps() {
	rounds := make([]int, 0, len(nd.ups))
	for r, u := range nd.ups {
		if u.arrived.count() > 0 {
			rounds = append(rounds, r)
		}
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		u := nd.ups[r]
		env, err := wire.Encode(wire.OverlayEOR{Round: r, Arrived: u.arrived.clone(), Done: u.done.clone()})
		if err != nil {
			continue // unreachable
		}
		u.sentArr, u.sentDone = u.arrived.count(), u.done.count()
		nd.parent.send(env)
		nd.opts.Stats.EORUp.Add(1)
	}
}

// rehome walks the failover ring until a new parent accepts: the next
// sub-leaders in ring order, the root as last resort, cycling (with
// backoff) within the round-timeout budget so a candidate that is slow to
// answer can still come back. The handshake's bilateral replay then heals
// whatever the abandoned parent stranded.
func (nd *node) rehome(cause error) error {
	if nd.id == Root {
		return fmt.Errorf("overlay: root lost a link it cannot replace: %w", cause)
	}
	failed := nd.parentID
	candidates := nd.lay.Failover(nd.id, failed)
	deadline := time.Now().Add(roundTimeout)
	backoff := 10 * time.Millisecond
	for time.Now().Before(deadline) {
		if nd.closed() {
			return fmt.Errorf("overlay: party %d closed while re-homing: %w", nd.id, cause)
		}
		for _, cand := range candidates {
			attempt := time.Now().Add(nd.opts.FailoverTimeout)
			if attempt.After(deadline) {
				attempt = deadline
			}
			nd.parentID = cand
			if err := nd.connectParent(attempt); err == nil {
				nd.opts.Stats.Failovers.Add(1)
				return nil
			}
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
	return fmt.Errorf("overlay: party %d found no parent after %d died: %w", nd.id, failed, cause)
}

// prune releases history the barrier has retired: anything at least two
// releases behind can no longer be needed by any re-homing peer (a stalled
// peer is at most one barrier behind the fleet).
func (nd *node) prune() {
	keep := nd.lastDown - 2
	for o := range nd.retained {
		frames := nd.retained[o]
		i := 0
		for i < len(frames) && frames[i].round < keep {
			i++
		}
		if i > 0 {
			nd.retained[o] = append(frames[:0:0], frames[i:]...)
		}
	}
	for r := range nd.downs {
		if r < keep {
			delete(nd.downs, r)
		}
	}
	for r := range nd.ups {
		if r < keep {
			delete(nd.ups, r)
		}
	}
}

// accept is the AcceptHost handler of an interior node: it validates the
// inbound hello off the main loop and hands a good one to it.
func (nd *node) accept(conn net.Conn) { go nd.handshake(conn) }

func (nd *node) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(nd.opts.SetupTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := transport.ReadFrame(br, transport.MaxFrameSize)
	if err != nil {
		conn.Close()
		return
	}
	nd.opts.Wire.AddRecv(len(body))
	hel, err := parseHello(body)
	if err != nil || hel.session != nd.session || hel.to != nd.id || hel.n != nd.n ||
		hel.branch != nd.lay.Branching || hel.from == nd.id || hel.from < 0 || int(hel.from) >= nd.n {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	nd.enqueue(levent{hs: &inbound{conn: conn, br: br, h: hel}})
}

// shutdown ends the node. When graceful, every link drains its queue first,
// so the final release frames reach the subtree before the connections die.
func (nd *node) shutdown(graceful bool) {
	if graceful {
		for _, l := range nd.links {
			l.drain(roundTimeout)
		}
	}
	nd.closeOnce.Do(func() {
		close(nd.quit)
		for _, l := range nd.links {
			l.close()
		}
	})
}
