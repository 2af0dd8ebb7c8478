package session

import (
	"fmt"
	"sync/atomic"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// rawEvent is one inbound wire.SessionRound, still encoded, as a link reader
// queued it on the owning engine. body is the wire body exactly as read off
// the socket (the read arena hands out a fresh slice per frame, so retaining
// it is safe); the engine's next turn streams it once.
type rawEvent struct {
	from sim.PartyID
	body []byte
}

// roundWindow is how many rounds of a session may hold traffic at once.
// While the engine awaits barrier r, an inbound frame can only be a peer's
// round r or r+1: the peer needs our round-r frame, which carries our mark,
// to pass barrier r, and a frame carries its round's messages and mark
// together. The mux guarantees it, so anything outside is a protocol
// violation that fails the session.
const roundWindow = 2

// engine is one daemon's seat of one session: the adapter between the mux
// and a passive protocol driver, stepped by whoever drains its shard. It
// owns the watchdog deadline and the seat's terminal record; rounds,
// mailboxes, accounting, termination and the wire form of a round live in
// internal/driver. All fields below the header are drainer-owned: only the
// one goroutine draining the shard touches them, so stepping takes no locks
// and, with the driver's recycled slots and frame buffers, no steady-state
// allocations.
//
// The session's table entry points here for as long as it lingers (its TTL
// plus the grace, minutes), so the shard empties a retired engine (release):
// only this header outlives the seat's run.
type engine struct {
	s  *session
	m  *Manager
	sh *shard

	ps parsedSpec // what begin builds the machine from; drainer-owned once admitted

	// Drainer-owned protocol state. Once begun exactly one driver is set: rd
	// steps a lock-step sim.Machine; ev (Options.Async) delivers every
	// payload of an inbound frame to an async.Pipeline on arrival. Either
	// sends through a driver.Framer that stages on the mux.
	rd *driver.Round
	ev *driver.Event

	// watchdog is the deadline (unix nanoseconds, 0 unarmed) the shard sweep
	// enforces, and awaited the round it belongs to: the awaited round's
	// barrier budget, or in async mode — pushed out by every arrival — a
	// bound on total silence, never on a round. Atomic because the sweep
	// reads them beside the drainer.
	watchdog atomic.Int64
	awaited  atomic.Int32

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
// machine and its mailboxes, queued frames, the frame buffers. Left in place
// it would all stay live heap until the session is reaped: some 9 KB a seat,
// which at a thousand sessions a second fills the collector's budget within
// the minute and the service slows as it runs. Called by the shard's drainer
// with shard.mu held, once the engine is gone.
func (e *engine) release() {
	e.ps = parsedSpec{}
	e.rd, e.ev = nil, nil
	e.in, e.inSpare = nil, nil
}

func (e *engine) armWatchdog() {
	e.watchdog.Store(time.Now().Add(e.m.d.opts.RoundTimeout).UnixNano())
}

// fail fails the session cluster-wide on a seat-level error.
func (e *engine) fail(err error) bool {
	e.m.fail(e.s, StateFailed, fmt.Sprintf("daemon %d: %v", e.m.d.id, err), true)
	return false
}

// run is the engine's whole turn: begin if fresh, stream the queued frames
// into the driver, then cross any barriers they completed. It returns false
// when the seat is finished (decided, failed, or the session went terminal
// elsewhere) and the shard should retire the engine.
func (e *engine) run(evs []rawEvent) bool {
	if e.s.terminal.Load() {
		return false
	}
	if e.rd == nil && e.ev == nil && !e.begin() {
		return false
	}
	if e.ev != nil {
		if len(evs) > 0 {
			e.armWatchdog()
		}
		for _, ev := range evs {
			if err := e.ev.Apply(ev.from, ev.body); err != nil {
				return e.fail(err)
			}
		}
		if !e.ev.Finished() {
			return true
		}
		return e.finish(e.ev.Output(), 1, 1, e.ev.Tally())
	}
	for _, ev := range evs {
		if err := e.rd.Apply(ev.from, ev.body); err != nil {
			return e.fail(err)
		}
	}
	finished, err := e.rd.Advance()
	if err != nil {
		return e.fail(err)
	}
	if !finished {
		// Barrier still open; wait for more frames. A round stepped this turn
		// starts its barrier's budget.
		if r := int32(e.rd.Round()); r != e.awaited.Load() {
			e.awaited.Store(r)
			e.armWatchdog()
		}
		return true
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
	// Frames are staged: the outbox copies, this drainer's flushDry writes,
	// and frames leave in staging order — a decided async seat's peers keep
	// amplifying for the rest, so there is nothing to purge.
	fr := driver.NewFramer(d.id, d.n, e.s.sid, d.mux.stage)
	if d.opts.Async {
		seat, _, err := ps.space.NewAsyncMachine(d.n, ps.spec.T, d.id, ps.inputs[d.id])
		if err != nil {
			return e.fail(err)
		}
		if !e.m.setRunning(e.s) {
			return false // evicted before the first step
		}
		e.ev = driver.NewEvent(d.id, d.n, seat, fr)
		e.armWatchdog()
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
	e.rd = driver.NewRound(d.id, d.n, ps.maxRounds, roundWindow, machine, fr)
	// Every seat of a served session is honest and on the same schedule, so
	// its last, message-free round needs no barrier to end on.
	e.rd.ElideFinalBarrier()
	return true // run's Advance steps round 1
}

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
	// Staged, not enqueued: the seat's drainer is the caller.
	if frame, err := sessionFrame(dec); err == nil {
		m.d.mux.stage(s.origin, frame)
	}
	m.mu.Lock()
	m.terminalLocked(s, StateDecided, "")
	m.mu.Unlock()
}
