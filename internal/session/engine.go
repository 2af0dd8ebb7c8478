package session

import (
	"fmt"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// rawEvent is one inbound in-session frame, still encoded: the zero-copy
// hand-off from a link reader to the owning engine's shard. body is the wire
// body exactly as read off the socket (transport.ReadFrame allocates a fresh
// slice per frame, so retaining it is safe); it is decoded on the shard
// worker, off the link's critical path.
type rawEvent struct {
	from sim.PartyID
	body []byte
}

// roundWindow is how many rounds of a session may hold traffic at once.
// While the engine awaits barrier r, inbound frames can only carry rounds r
// or r+1: a peer needs our eor(r) to pass barrier r, and link FIFO delivers
// every round-r' message before eor(r'). The mux guarantees it, so anything
// outside is a protocol violation that fails the session.
const roundWindow = 2

// engine is one daemon's seat of one session: the adapter between the mux
// and a passive protocol driver, stepped by its shard's worker. It owns the
// SessionMsg/SessionEOR framing and the watchdog deadline; rounds,
// mailboxes, accounting and termination live in
// internal/driver. All fields below the header are worker-owned: only the
// owning shard's single worker goroutine touches them, so stepping takes no
// locks and, with the driver's recycled slots and the scratch buffer, no
// steady-state allocations.
//
// The session's table entry points here for as long as it lingers (its TTL
// plus the grace, minutes), so the shard empties a retired engine (release):
// only this header outlives the seat's run.
type engine struct {
	s  *session
	m  *Manager
	sh *shard

	ps parsedSpec // what begin builds the machine from; worker-owned once admitted

	// Worker-owned protocol state. Once begun exactly one driver is set: rd
	// steps a lock-step sim.Machine; ev (Options.Async) delivers every
	// inbound SessionMsg to an async.Pipeline on arrival, with
	// SessionEOR{Done: true} as a peer's one-shot decision announcement.
	rd *driver.Round
	ev *driver.Event
	// watchdog is the deadline the shard sweep enforces: the awaited round's
	// barrier budget, or in async mode — pushed out by every arrival — a
	// bound on total silence, never on a round.
	watchdog     time.Time
	frameScratch []byte

	// Queue state, guarded by shard.mu.
	in      []rawEvent
	inSpare []rawEvent
	queued  bool // already on the shard's dirty list
	gone    bool // removed from the shard; stale wakes are no-ops
}

func newEngine(m *Manager, sh *shard, s *session, ps parsedSpec) *engine {
	return &engine{s: s, m: m, sh: sh, ps: ps}
}

// release drops everything the seat's run held — the parsed space, the
// machine and its mailboxes, queued frames, the encode buffer. Left in place
// it would all stay live heap until the session is reaped: some 9 KB a seat,
// which at a thousand sessions a second fills the collector's budget within
// the minute and the service slows as it runs. Called by the shard's worker
// with shard.mu held, once the engine is gone.
func (e *engine) release() {
	e.ps = parsedSpec{}
	e.rd, e.ev = nil, nil
	e.frameScratch = nil
	e.in, e.inSpare = nil, nil
}

// fail fails the session cluster-wide on a seat-level error.
func (e *engine) fail(err error) bool {
	e.m.fail(e.s, StateFailed, fmt.Sprintf("daemon %d: %v", e.m.d.id, err), true)
	return false
}

// run is the engine's whole turn: begin if fresh, apply the queued frames,
// then cross any barriers they completed. It returns false when the seat is
// finished (decided, failed, or the session went terminal elsewhere) and
// the shard should retire the engine.
func (e *engine) run(evs []rawEvent) bool {
	if e.s.terminal.Load() {
		return false
	}
	if e.rd == nil && e.ev == nil && !e.begin() {
		return false
	}
	for _, ev := range evs {
		if err := e.apply(ev); err != nil {
			return e.fail(err)
		}
	}
	if e.ev != nil {
		if !e.ev.Finished() {
			return true
		}
		return e.finish(e.ev.Output(), 1, 1, e.ev.Tally())
	}
	finished, err := e.rd.Advance()
	if err != nil {
		return e.fail(err)
	}
	if !finished {
		return true // barrier still open; wait for more frames
	}
	res := e.rd.Result()
	return e.finish(res.Output, res.DoneRound, res.TermRound, res.Total())
}

// begin creates the machine and its driver and ships the opening traffic
// (round 1, or the async pipeline's initial broadcasts). The origin
// broadcasts SessionOpen before registering the engine, so these frames
// follow the open on every link FIFO.
func (e *engine) begin() bool {
	d, ps := e.m.d, &e.ps
	if d.opts.Async {
		seat, _, err := ps.space.NewAsyncMachine(d.n, ps.spec.T, d.id, ps.inputs[d.id])
		if err != nil {
			return e.fail(err)
		}
		if !e.m.setRunning(e.s) {
			return false // evicted before the first step
		}
		e.ev = driver.NewEvent(d.id, d.n, seat, e)
		e.watchdog = time.Now().Add(d.opts.RoundTimeout)
		if err := e.ev.Start(); err != nil {
			return e.fail(err)
		}
		return true
	}
	machine, _, err := ps.space.NewMachine(d.n, ps.spec.T, d.id, ps.inputs[d.id])
	if err != nil {
		return e.fail(err)
	}
	if !e.m.setRunning(e.s) {
		return false
	}
	e.rd = driver.NewRound(d.id, d.n, ps.maxRounds, roundWindow, machine, e)
	return true // run's Advance steps round 1
}

// apply decodes one raw frame and hands it to the driver. Window
// violations, duplicate marks and foreign payloads fail the session: the
// mesh is trusted, so they are bugs, not noise.
func (e *engine) apply(ev rawEvent) error {
	payload, err := wire.Decode(ev.body)
	if err != nil {
		return fmt.Errorf("frame from daemon %d: %v", ev.from, err)
	}
	if e.ev != nil {
		e.watchdog = time.Now().Add(e.m.d.opts.RoundTimeout)
	}
	switch p := payload.(type) {
	case wire.SessionMsg:
		if e.ev != nil {
			return e.ev.Deliver(ev.from, p.Payload)
		}
		return e.rd.File(sim.Message{From: ev.from, To: e.m.d.id, Round: p.Round, Payload: p.Payload})
	case wire.SessionEOR:
		if e.ev != nil {
			return e.ev.PeerDone(ev.from, p.Done)
		}
		return e.rd.EOR(p.Round, ev.from, p.Done)
	}
	return fmt.Errorf("unexpected %T in session stream", payload)
}

// Emit frames one protocol message as a SessionMsg and queues it on the mux
// for its remote recipients. Encoding reuses frameScratch: the mux outbox
// copies every enqueued frame. In async mode the round field carries the
// pipeline's EnvelopeRound — progress for observers, never waited on.
func (e *engine) Emit(round int, to sim.PartyID, payload any) error {
	d := e.m.d
	if to == d.id {
		return nil
	}
	frame, err := appendSessionFrame(e.frameScratch[:0],
		wire.SessionMsg{SID: e.s.sid, Round: round, Payload: payload})
	if err != nil {
		return err
	}
	e.frameScratch = frame
	if to == sim.Broadcast {
		d.mux.broadcast(frame)
	} else {
		d.mux.enqueue(to, frame)
	}
	return nil
}

// EndRound broadcasts the SessionEOR that is this seat's share of the
// round's barrier and arms the watchdog for it.
func (e *engine) EndRound(round int, done bool) error {
	d := e.m.d
	e.watchdog = time.Now().Add(d.opts.RoundTimeout)
	eor, err := appendSessionFrame(e.frameScratch[:0],
		wire.SessionEOR{SID: e.s.sid, Round: round, Done: done})
	if err != nil {
		return err
	}
	e.frameScratch = eor
	d.mux.broadcast(eor)
	return nil
}

// Announce broadcasts an async seat's one-and-only SessionEOR, the done
// announcement. Decided peers keep amplifying RBC traffic for the rest, so
// there is nothing to purge — the mux ships frames in enqueue order.
func (e *engine) Announce() error { return e.EndRound(1, true) }

// finish reports the seat's terminal record and retires the engine. Async
// seats report the constant round 1 — there is no round to report, and the
// constant keeps the origin's uniform termination-round check meaningful (a
// mixed-mode fleet cannot slip through: the cluster hash already keeps it
// from pairing).
func (e *engine) finish(output any, doneRound, termRound int, sent driver.Tally) bool {
	v, ok := output.(tree.VertexID)
	if !ok {
		return e.fail(fmt.Errorf("non-vertex output %T", output))
	}
	e.m.finishSeat(e.s, wire.SessionDecide{
		SID: e.s.sid, Party: e.m.d.id, V: v,
		DoneRound: doneRound, TermRound: termRound, Msgs: sent.Msgs, Bytes: sent.Bytes,
	})
	return false // seat complete
}

// setRunning moves Pending → Running; false means the session already went
// terminal (deadline eviction or a peer's rejection beat the engine here).
func (m *Manager) setRunning(s *session) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.state.Terminal() {
		return false
	}
	s.state = StateRunning
	return true
}

// finishSeat reports this seat's terminal record. On the origin it feeds the
// assembly directly (the session stays Running until all n records are in);
// on a peer it ships the SessionDecide to the origin and marks the local
// session Decided — the origin owns the authoritative Outcome.
func (m *Manager) finishSeat(s *session, dec wire.SessionDecide) {
	if s.origin == m.d.id {
		m.handleDecide(m.d.id, dec)
		return
	}
	if frame, err := sessionFrame(dec); err == nil {
		m.d.mux.enqueue(s.origin, frame)
	}
	m.mu.Lock()
	m.terminalLocked(s, StateDecided, "")
	m.mu.Unlock()
}
