package session

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// session is one tracked session on this daemon. Mutable fields are guarded
// by Manager.mu; terminal is the lock-free mirror of state.Terminal() the
// shard drainers poll, set exactly once at the terminal transition.
type session struct {
	sid    uint64
	origin sim.PartyID // daemon the session was submitted to
	eng    *engine     // this daemon's seat; owned by shardOf(sid). nil on journal-restored sessions

	state    State
	reason   string
	admitted time.Time
	deadline time.Time
	terminal atomic.Bool

	// Origin-side assembly state.
	decides map[sim.PartyID]wire.SessionDecide
	result  *sim.Result
	latency time.Duration
	waiters []chan Outcome

	// Durability state (journaled daemons only).
	sealed  bool            // a terminal seal record has been appended
	durable <-chan struct{} // closed once the seal is fsynced; nil = no gating
}

// Manager owns a daemon's session table: admission control, lifecycle
// transitions, deadline eviction, and origin-side Result assembly. The
// per-frame data plane does not come through here — link readers hand raw
// frames straight to the owning shard (handleRaw) and step its engines
// there, so Manager.mu is a control-plane lock, taken per session
// transition, not per frame.
type Manager struct {
	d      *Daemon
	shards []*shard

	mu       sync.Mutex
	table    map[uint64]*session
	expiry   deadlineHeap // live sessions ordered by deadline
	reap     deadlineHeap // terminal sessions ordered by linger end
	inflight int          // non-terminal sessions, the admission-control quantity
	nextSeq  uint64
	draining bool // drain window: local submits refused, peer opens still admitted
	stopped  bool // drain complete: the mux is about to die, refuse everything
	// degraded tracks currently-down peer links. Admissions are refused while
	// any link is down; the mux's redial loop clears entries as links return,
	// so a peer restart degrades the daemon instead of poisoning it forever.
	degraded map[sim.PartyID]error

	// jw is nil on journal-less daemons, and during journal replay (the
	// writer opens once the table is rebuilt, so replay never re-journals).
	jw *journal.Writer

	// The timekeeper's: its wake-up, its stop, and when it last swept.
	kick       chan struct{} // capacity 1: wake queued an engine and nobody is draining
	quit       chan struct{}
	done       chan struct{}
	sweepEvery time.Duration
	swept      time.Time
}

// evictEvery is how often the timekeeper looks at the deadline heaps.
const evictEvery = 10 * time.Millisecond

// newManager also starts the timekeeper; stop ends it.
func newManager(d *Daemon) *Manager {
	m := &Manager{
		d:        d,
		table:    make(map[uint64]*session),
		nextSeq:  1,
		degraded: make(map[sim.PartyID]error),
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		// The sweep only enforces coarse timeouts (barrier deadlines, pending
		// GC); keep it well under the round timeout without burning cycles.
		sweepEvery: min(max(d.opts.RoundTimeout/8, 5*time.Millisecond), 50*time.Millisecond),
	}
	// One engine-pool shard per core, capped at 16.
	m.shards = make([]*shard, min(runtime.GOMAXPROCS(0), 16))
	for i := range m.shards {
		m.shards[i] = newShard(m)
	}
	go m.timekeeper()
	return m
}

func (m *Manager) shardOf(sid uint64) *shard {
	return m.shards[sid%uint64(len(m.shards))]
}

// Submit admits a locally submitted session and starts its seat. sid 0
// means auto-assign; a client-chosen sid must be cluster-unique (the
// duplicate check is local to this origin plus remote via peer rejections).
func (m *Manager) Submit(spec Spec, sid uint64) (uint64, error) {
	ps, err := parseSpec(spec, m.d.n, m.d.opts.DefaultTTL)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.stats().Submitted.Add(1)
	if err := m.degradedLocked(); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	if m.draining {
		m.mu.Unlock()
		return 0, fmt.Errorf("session: daemon %d is draining", m.d.id)
	}
	if sid == 0 {
		for {
			sid = (uint64(m.d.id)+1)<<48 | m.nextSeq
			m.nextSeq++
			if _, taken := m.table[sid]; !taken {
				break
			}
		}
	} else if _, dup := m.table[sid]; dup {
		m.stats().RejectedDuplicate.Add(1)
		m.mu.Unlock()
		return 0, fmt.Errorf("session: duplicate session id %#x", sid)
	} else if m.shardOf(sid).dead(sid) {
		m.stats().RejectedDuplicate.Add(1)
		m.mu.Unlock()
		return 0, fmt.Errorf("session: session id %#x was recently used", sid)
	}
	s, err := m.admitLocked(sid, m.d.id, ps)
	if err != nil {
		m.mu.Unlock()
		return 0, err
	}
	m.mu.Unlock()

	open, ferr := sessionFrame(wire.SessionOpen{
		SID: sid, Tree: spec.Tree, Seed: spec.Seed, T: spec.T, Inputs: spec.Inputs,
		TTLMillis: uint64(ps.deadline / time.Millisecond),
	})
	if ferr != nil {
		m.fail(s, StateFailed, fmt.Sprintf("encoding open: %v", ferr), false)
		return 0, ferr
	}
	// The open precedes every round-1 frame on each link FIFO, because the
	// engine starts only after the open is in the outboxes. register steps
	// round 1 right here, and one write per peer carries both.
	m.d.mux.stage(sim.Broadcast, open)
	s.eng.sh.register(s.eng)
	m.d.mux.flushDry()
	return sid, nil
}

// admitLocked performs the capacity check and registers the session. The
// engine is created here (so terminalLocked can always wake it) but joins
// its shard only after the caller releases Manager.mu.
func (m *Manager) admitLocked(sid uint64, origin sim.PartyID, ps parsedSpec) (*session, error) {
	if m.inflight >= m.d.opts.MaxSessions {
		m.stats().RejectedCapacity.Add(1)
		return nil, fmt.Errorf("session: daemon %d at capacity (%d in flight)", m.d.id, m.inflight)
	}
	now := time.Now()
	s := &session{sid: sid, origin: origin, state: StatePending,
		admitted: now, deadline: now.Add(ps.deadline),
		decides: make(map[sim.PartyID]wire.SessionDecide, m.d.n)}
	s.eng = newEngine(m, m.shardOf(sid), s, ps)
	m.table[sid] = s
	heap.Push(&m.expiry, deadlineEntry{at: s.deadline.UnixNano(), sid: sid})
	m.inflight++
	m.stats().Admitted.Add(1)
	// Write-ahead: the admission hits the journal before the session's seal
	// can. The absolute deadline is journaled so a restored entry lingers no
	// longer than the original would have.
	if m.jw != nil {
		m.jw.Append(wire.JournalOpen{
			SID: sid, Origin: origin, Tree: ps.spec.Tree, Seed: ps.spec.Seed,
			T: ps.spec.T, Inputs: ps.spec.Inputs,
			TTLMillis:        uint64(ps.deadline / time.Millisecond),
			DeadlineUnixNano: s.deadline.UnixNano(),
		})
	}
	m.logSession(s, "session admitted")
	return s, nil
}

// logSession emits one structured per-session log line, if configured.
func (m *Manager) logSession(s *session, msg string) {
	if lg := m.d.opts.SessionLog; lg != nil {
		lg.Info(msg, "daemon", int(m.d.id), "sid", fmt.Sprintf("%#x", s.sid),
			"origin", int(s.origin), "state", s.state.String(), "reason", s.reason)
	}
}

// handleRaw is the mux handler: every inbound wire body, still encoded,
// attributed to its authenticated peer. The data-plane frame, SessionRound,
// goes to the owning shard on the session id peeked from the header — no
// global lock — and the shard steps the engine on this goroutine if the
// frame gave it work. Control frames are rare; they decode here and take
// Manager.mu. A non-nil error fails the link (the mesh is trusted; garbage
// is fatal), and the frames SessionRound replaced are garbage.
func (m *Manager) handleRaw(from sim.PartyID, body []byte) error {
	typ, sid, err := wire.PeekSession(body)
	if err != nil {
		return err
	}
	switch typ {
	case wire.TypeSessionRound:
		m.shardOf(sid).deliver(from, sid, body)
		return nil
	case wire.TypeSessionMsg, wire.TypeSessionEOR:
		return fmt.Errorf("session: retired frame type 0x%02x from daemon %d", typ, from)
	}
	payload, err := wire.Decode(body)
	if err != nil {
		return err
	}
	switch p := payload.(type) {
	case wire.SessionOpen:
		m.openRemote(from, p)
	case wire.SessionAbort:
		m.handleAbort(p)
	case wire.SessionDecide:
		m.handleDecide(from, p)
	}
	return nil
}

// openRemote admits (or rejects) a session announced by a peer daemon. A
// rejection is answered with a SessionAbort to the origin, which fails the
// session cluster-wide; this daemon only tombstones the id.
func (m *Manager) openRemote(from sim.PartyID, open wire.SessionOpen) {
	spec := Spec{Tree: open.Tree, Seed: open.Seed, T: open.T, Inputs: open.Inputs,
		TTL: time.Duration(open.TTLMillis) * time.Millisecond}
	ps, perr := parseSpec(spec, m.d.n, m.d.opts.DefaultTTL)

	m.mu.Lock()
	m.stats().Submitted.Add(1)
	reject := func(reason string) {
		m.mu.Unlock()
		m.shardOf(open.SID).bury(open.SID)
		m.abortTo(from, open.SID, reason)
	}
	if _, dup := m.table[open.SID]; dup {
		m.stats().RejectedDuplicate.Add(1)
		reject(fmt.Sprintf("daemon %d: duplicate session id", m.d.id))
		return
	}
	if perr != nil {
		reject(fmt.Sprintf("daemon %d: %v", m.d.id, perr))
		return
	}
	// A peer open is a session already admitted at its origin, so the drain
	// window does not reject it — the drain's whole point is letting the
	// cluster's in-flight sessions finish, and its poll loop waits for
	// sessions admitted here. Once the drain has completed the mux is about
	// to die, so admitting would strand a seat whose frames go nowhere.
	if m.stopped || len(m.degraded) > 0 {
		reject(fmt.Sprintf("daemon %d: not accepting sessions", m.d.id))
		return
	}
	s, err := m.admitLocked(open.SID, from, ps)
	if err != nil {
		reject(err.Error())
		return
	}
	m.mu.Unlock()
	s.eng.sh.register(s.eng)
}

// handleAbort applies a terminal failure broadcast. The origin re-broadcasts
// on its own transition, so a rejection sent only origin-wards still reaches
// every peer; transitions are once-only, which bounds the gossip.
func (m *Manager) handleAbort(ab wire.SessionAbort) {
	m.mu.Lock()
	s := m.table[ab.SID]
	if s == nil {
		m.mu.Unlock()
		m.shardOf(ab.SID).bury(ab.SID)
		return
	}
	if s.state.Terminal() {
		m.mu.Unlock()
		return
	}
	rebroadcast := s.origin == m.d.id
	m.terminalLocked(s, StateFailed, ab.Reason)
	m.mu.Unlock()
	if rebroadcast {
		m.broadcastAbort(s.sid, ab.Reason)
	}
}

// handleDecide records one seat's terminal report; the origin assembles the
// Result once all n records (its own included) are in.
func (m *Manager) handleDecide(from sim.PartyID, dec wire.SessionDecide) {
	m.mu.Lock()
	s := m.table[dec.SID]
	if s == nil || s.state.Terminal() || s.origin != m.d.id {
		m.mu.Unlock()
		return
	}
	if from != m.d.id && dec.Party != from {
		m.terminalLocked(s, StateFailed,
			fmt.Sprintf("daemon %d reported a decide for party %d", from, dec.Party))
		m.mu.Unlock()
		m.broadcastAbort(s.sid, s.reason)
		return
	}
	if _, dup := s.decides[dec.Party]; dup {
		m.terminalLocked(s, StateFailed, fmt.Sprintf("duplicate decide from party %d", dec.Party))
		m.mu.Unlock()
		m.broadcastAbort(s.sid, s.reason)
		return
	}
	s.decides[dec.Party] = dec
	if len(s.decides) == m.d.n {
		m.assembleLocked(s)
	}
	m.mu.Unlock()
}

// assembleLocked builds the sim.Run-identical Result from the n seat
// records: outputs per party, the common termination round, and the
// cluster-wide message and byte totals (each seat counted its own sends,
// self-delivery included, exactly like the engine).
func (m *Manager) assembleLocked(s *session) {
	res := &sim.Result{
		Outputs:   make(map[sim.PartyID]any, m.d.n),
		Corrupted: make(map[sim.PartyID]bool),
	}
	term := -1
	for p, dec := range s.decides {
		if term == -1 {
			term = dec.TermRound
		} else if dec.TermRound != term {
			m.terminalLocked(s, StateFailed,
				fmt.Sprintf("termination rounds diverge: party %d at %d, others at %d", p, dec.TermRound, term))
			return
		}
		res.Outputs[p] = dec.V
		res.Messages += dec.Msgs
		res.Bytes += dec.Bytes
	}
	res.Rounds = term
	s.result = res
	m.terminalLocked(s, StateDecided, "")
}

// terminalLocked performs the one-and-only terminal transition: state,
// accounting, waiter notification, and the engine wake-up that retires a
// seat whose session ended externally (eviction, abort, link down).
func (m *Manager) terminalLocked(s *session, st State, reason string) {
	if s.state.Terminal() {
		return
	}
	s.state = st
	s.reason = reason
	s.latency = time.Since(s.admitted)
	s.decides = nil // assembled or moot; the entry lingers long after this
	m.inflight--
	s.terminal.Store(true)
	heap.Push(&m.reap, deadlineEntry{
		at: s.deadline.Add(m.d.opts.DefaultTTL).UnixNano(), sid: s.sid})
	if s.eng != nil {
		s.eng.sh.wake(s.eng)
	}
	switch st {
	case StateDecided:
		m.stats().Decided.Add(1)
	case StateExpired:
		m.stats().Expired.Add(1)
		m.stats().Failed.Add(1)
	default:
		m.stats().Failed.Add(1)
	}
	m.stats().AddSessionLatency(s.latency)
	m.sealLocked(s)
	m.logSession(s, "session terminal")
	out := m.outcomeLocked(s)
	waiters := s.waiters
	s.waiters = nil
	deliverOutcome(s.durable, waiters, out)
}

// sealLocked journals the terminal transition. Origin-side decided seals
// commit — waiters are released only once the seal is fsynced, making "the
// client saw decided" a durable fact — while non-origin seals, failures
// and expiries append without a ticket (no client ack is gated on them;
// one lost to a crash is restored as a failure).
func (m *Manager) sealLocked(s *session) {
	if m.jw == nil || s.sealed {
		return
	}
	s.sealed = true
	seal := wire.JournalSeal{SID: s.sid, State: byte(s.state), Reason: s.reason,
		LatencyNS: s.latency.Nanoseconds()}
	if r := s.result; r != nil {
		seal.HasResult = true
		seal.Rounds, seal.Msgs, seal.Bytes = r.Rounds, r.Messages, r.Bytes
		for p, v := range r.Outputs {
			if vid, ok := v.(tree.VertexID); ok {
				seal.Outputs = append(seal.Outputs, wire.OutputPair{Party: p, V: vid})
			}
		}
		sort.Slice(seal.Outputs, func(i, j int) bool {
			return seal.Outputs[i].Party < seal.Outputs[j].Party
		})
	}
	if s.state == StateDecided && s.origin == m.d.id {
		// Only the origin acks the client, so only the origin needs the
		// fsync barrier. Non-origin seals ride the next group commit.
		if ticket, err := m.jw.Commit(seal); err == nil {
			s.durable = ticket
		}
	} else {
		m.jw.Append(seal)
	}
}

// deliverOutcome sends the outcome to each waiter (channels are buffered,
// sends never block), gated on seal durability when a ticket exists.
func deliverOutcome(durable <-chan struct{}, waiters []chan Outcome, out Outcome) {
	if len(waiters) == 0 {
		return
	}
	if durable == nil {
		for _, w := range waiters {
			w <- out
		}
		return
	}
	go func() {
		<-durable
		for _, w := range waiters {
			w <- out
		}
	}()
}

func (m *Manager) outcomeLocked(s *session) Outcome {
	return Outcome{SID: s.sid, State: s.state, Err: s.reason,
		Result: s.result, Latency: s.latency}
}

// fail transitions a session to a terminal failure state and, when asked,
// broadcasts the abort so the whole cluster converges.
func (m *Manager) fail(s *session, st State, reason string, broadcast bool) {
	m.mu.Lock()
	already := s.state.Terminal()
	if !already {
		m.terminalLocked(s, st, reason)
	}
	m.mu.Unlock()
	if !already && broadcast {
		m.broadcastAbort(s.sid, reason)
	}
}

func (m *Manager) broadcastAbort(sid uint64, reason string) {
	if frame, err := sessionFrame(wire.SessionAbort{SID: sid, Reason: reason}); err == nil {
		m.d.mux.enqueue(sim.Broadcast, frame)
	}
}

func (m *Manager) abortTo(peer sim.PartyID, sid uint64, reason string) {
	if frame, err := sessionFrame(wire.SessionAbort{SID: sid, Reason: reason}); err == nil {
		m.d.mux.enqueue(peer, frame)
	}
}

// Status returns a session's current view; ok is false for unknown ids.
func (m *Manager) Status(sid uint64) (Outcome, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.table[sid]
	if s == nil {
		return Outcome{}, false
	}
	return m.outcomeLocked(s), true
}

// Wait returns a channel that delivers the session's Outcome at its
// terminal transition (immediately, for an already-terminal session).
func (m *Manager) Wait(sid uint64) (<-chan Outcome, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.table[sid]
	if s == nil {
		return nil, fmt.Errorf("session: unknown session id %#x", sid)
	}
	ch := make(chan Outcome, 1)
	if s.state.Terminal() {
		// Same durability gate as the terminal transition: a decided outcome
		// is observable only after its seal is on stable storage.
		deliverOutcome(s.durable, []chan Outcome{ch}, m.outcomeLocked(s))
	} else {
		s.waiters = append(s.waiters, ch)
	}
	return ch, nil
}

// linkDown degrades the manager after a peer link died: every in-flight
// session spans all daemons, so all of them fail, and admissions are
// refused until the mux's redial loop restores the link (linkUp). During a
// drain the failure sweep is skipped: peers that finished draining hang up
// as soon as their final flush lands, and the decides that complete our
// sessions may already be buffered on other links — a session that really
// lost its decides still expires at the drain deadline instead.
func (m *Manager) linkDown(peer sim.PartyID, err error) {
	m.mu.Lock()
	m.degraded[peer] = err
	var victims []*session
	if !m.draining {
		for _, s := range m.table {
			if !s.state.Terminal() {
				victims = append(victims, s)
			}
		}
	}
	for _, s := range victims {
		m.terminalLocked(s, StateFailed, fmt.Sprintf("peer link down: %v", err))
	}
	m.mu.Unlock()
}

// linkUp clears a peer's degraded entry once its link is (re)established.
func (m *Manager) linkUp(peer sim.PartyID) {
	m.mu.Lock()
	delete(m.degraded, peer)
	m.mu.Unlock()
}

// degradedLocked returns the admission-refusal error while any link is down.
func (m *Manager) degradedLocked() error {
	for p, err := range m.degraded {
		return fmt.Errorf("session: cluster degraded (link to daemon %d down, retry shortly): %w", p, err)
	}
	return nil
}

// Health reports daemon readiness: nil while every peer link is up and the
// daemon is accepting work. The obs /healthz endpoint surfaces the error
// text.
func (m *Manager) Health() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.degradedLocked(); err != nil {
		return err
	}
	if m.stopped {
		return errors.New("stopped")
	}
	if m.draining {
		return errors.New("draining")
	}
	return nil
}

// deadlineEntry schedules one session for an eviction action at a fixed
// time. Entries are never removed early: a popped entry whose session is
// gone or already in the target state is simply skipped, so each session
// costs exactly one expiry and one reap entry over its lifetime.
type deadlineEntry struct {
	at  int64 // unix nanoseconds
	sid uint64
}

type deadlineHeap []deadlineEntry

func (h deadlineHeap) Len() int           { return len(h) }
func (h deadlineHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h deadlineHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *deadlineHeap) Push(x any)        { *h = append(*h, x.(deadlineEntry)) }
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// timekeeper is the daemon's one background goroutine: everything that
// happens because time passed, or because wake found nobody draining,
// happens on it. It starts with the manager, so its first passes run while
// the daemon is still replaying its journal, before it has a mux.
func (m *Manager) timekeeper() {
	defer close(m.done)
	ticker := time.NewTicker(min(evictEvery, m.sweepEvery))
	defer ticker.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-m.kick:
		case <-ticker.C:
		}
		m.pass(time.Now())
	}
}

// pass evicts what is due, sweeps every shard once the sweep interval has
// elapsed, then retires what either found and whatever wake queued. Unlike a
// link reader the timekeeper has no dry point of its own to write at, so it
// writes here; a pass that ran no engine turn touches no mux.
func (m *Manager) pass(now time.Time) {
	m.evictTick(now)
	if now.Sub(m.swept) >= m.sweepEvery {
		m.swept = now
		for _, sh := range m.shards {
			sh.sweep(now)
		}
	}
	turns := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		turns += sh.drainLocked(false)
	}
	if turns > 0 {
		m.d.mux.flushDry()
	}
}

// evictTick enforces deadlines: non-terminal sessions past their deadline
// are expired (and the abort broadcast, so every seat stops paying for
// them); terminal sessions linger for status queries until the same
// deadline plus a grace period, then leave a tombstone on their shard.
// Both actions pop deadline-ordered heaps, so a tick costs the sessions
// actually due, not a scan of the whole table (which holds every lingering
// terminal session and grew with throughput).
func (m *Manager) evictTick(now time.Time) {
	type abort struct {
		sid    uint64
		reason string
	}
	var aborts []abort
	var buried []uint64
	nowNS := now.UnixNano()
	m.mu.Lock()
	for len(m.expiry) > 0 && m.expiry[0].at <= nowNS {
		e := heap.Pop(&m.expiry).(deadlineEntry)
		s := m.table[e.sid]
		if s == nil || s.state.Terminal() {
			continue // already ended; its reap entry handles the rest
		}
		m.terminalLocked(s, StateExpired, "deadline exceeded")
		aborts = append(aborts, abort{sid: e.sid, reason: "deadline exceeded"})
	}
	for len(m.reap) > 0 && m.reap[0].at <= nowNS {
		e := heap.Pop(&m.reap).(deadlineEntry)
		if _, ok := m.table[e.sid]; ok {
			delete(m.table, e.sid)
			buried = append(buried, e.sid)
		}
	}
	m.mu.Unlock()
	for _, sid := range buried {
		m.shardOf(sid).bury(sid)
	}
	for _, a := range aborts {
		m.broadcastAbort(a.sid, a.reason)
	}
}

// drain stops admissions and waits (up to timeout) for in-flight sessions
// to reach a terminal state; leftovers are expired. Part of the daemon's
// graceful shutdown.
func (m *Manager) drain(timeout time.Duration) {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	// Grace beat: opens for sessions already admitted at their origin may
	// still be in flight, and admitting one after the mux died would strand
	// its seat. One short wait lets them surface; the poll below then keeps
	// the daemon up until they finish.
	grace := 25 * time.Millisecond
	if grace > timeout/4 {
		grace = timeout / 4
	}
	time.Sleep(grace)
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		left := m.inflight
		if left == 0 {
			m.stopped = true
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.mu.Lock()
	m.stopped = true
	var leftovers []*session
	for _, s := range m.table {
		if !s.state.Terminal() {
			leftovers = append(leftovers, s)
		}
	}
	for _, s := range leftovers {
		m.terminalLocked(s, StateExpired, "daemon shutting down")
	}
	m.mu.Unlock()
}

func (m *Manager) stop() {
	close(m.quit)
	<-m.done
}

func (m *Manager) stats() *metrics.ServeStats { return m.d.opts.Stats }
