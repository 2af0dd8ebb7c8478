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
// owns the SessionRound framing and the watchdog deadline; rounds,
// mailboxes, accounting and termination live in internal/driver. All fields
// below the header are drainer-owned: only the one goroutine draining the
// shard touches them, so stepping takes no locks and, with the driver's
// recycled slots and the scratch buffers, no steady-state allocations.
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
	// payload of an inbound frame to an async.Pipeline on arrival, with an
	// empty done-marked frame as a peer's one-shot decision announcement.
	rd *driver.Round
	ev *driver.Event
	// out is what the lock-step machine has emitted in the round being
	// stepped, payload by payload with its recipient, until EndRound frames
	// it; unicast records that some recipient was not sim.Broadcast.
	out          []any
	outTo        []sim.PartyID
	unicast      bool
	frameScratch []byte

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
// machine and its mailboxes, queued frames, the encode buffers. Left in place
// it would all stay live heap until the session is reaped: some 9 KB a seat,
// which at a thousand sessions a second fills the collector's budget within
// the minute and the service slows as it runs. Called by the shard's drainer
// with shard.mu held, once the engine is gone.
func (e *engine) release() {
	e.ps = parsedSpec{}
	e.rd, e.ev = nil, nil
	e.out, e.outTo, e.frameScratch = nil, nil, nil
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
	e.rd = driver.NewRound(d.id, d.n, ps.maxRounds, roundWindow, machine, e)
	// Every seat of a served session is honest and on the same schedule, so
	// its last, message-free round needs no barrier to end on.
	e.rd.ElideFinalBarrier()
	return true // run's Advance steps round 1
}

// apply streams one raw frame into the driver: its k messages, then its
// mark. Window violations, duplicate marks and foreign payloads fail the
// session: the mesh is trusted, so they are bugs, not noise.
func (e *engine) apply(ev rawEvent) error {
	fr, err := wire.ReadSessionRound(ev.body)
	if err != nil {
		return fmt.Errorf("frame from daemon %d: %v", ev.from, err)
	}
	if e.ev != nil {
		e.armWatchdog()
		if fr.Len() == 0 && !fr.Done {
			return fmt.Errorf("empty frame from daemon %d announces nothing", ev.from)
		}
	}
	for {
		payload, ok, err := fr.Next()
		if err != nil {
			return fmt.Errorf("frame from daemon %d: %v", ev.from, err)
		}
		if !ok {
			break
		}
		if e.ev != nil {
			err = e.ev.Deliver(ev.from, payload)
		} else {
			err = e.rd.File(sim.Message{From: ev.from, To: e.m.d.id, Round: fr.Round, Payload: payload})
		}
		if err != nil {
			return err
		}
	}
	if e.ev == nil {
		return e.rd.EOR(fr.Round, ev.from, fr.Done)
	}
	if fr.Done {
		return e.ev.PeerDone(ev.from, true)
	}
	return nil
}

// Emit takes one protocol message from the driver. A lock-step seat holds
// it for the frame EndRound builds; an async seat has no rounds to gather
// by and ships it at once, a frame of one, its round field carrying the
// pipeline's EnvelopeRound — progress for observers, never waited on.
func (e *engine) Emit(round int, to sim.PartyID, payload any) error {
	if to == e.m.d.id {
		return nil
	}
	if e.ev != nil {
		e.out = append(e.out[:0], payload)
		return e.ship(to, wire.SessionRound{SID: e.s.sid, Round: round, Payloads: e.out})
	}
	e.out, e.outTo = append(e.out, payload), append(e.outTo, to)
	e.unicast = e.unicast || to != sim.Broadcast
	return nil
}

// EndRound ships the round: to each peer one frame holding what the machine
// sent it and this seat's share of the barrier, and arms the watchdog for
// that barrier. When everything was a broadcast — every TreeAA round — the
// peers' frames are the same bytes, encoded once.
func (e *engine) EndRound(round int, done bool) error {
	d := e.m.d
	e.armWatchdog()
	e.awaited.Store(int32(round))
	fr := wire.SessionRound{SID: e.s.sid, Round: round, Done: done, Payloads: e.out}
	var err error
	if !e.unicast {
		err = e.ship(sim.Broadcast, fr)
	} else {
		all := e.out
		fr.Payloads = make([]any, 0, len(all))
		for p := sim.PartyID(0); int(p) < d.n && err == nil; p++ {
			if p == d.id {
				continue
			}
			fr.Payloads = fr.Payloads[:0]
			for i, to := range e.outTo {
				if to == p || to == sim.Broadcast {
					fr.Payloads = append(fr.Payloads, all[i])
				}
			}
			err = e.ship(p, fr)
		}
	}
	clear(e.out)
	e.out, e.outTo, e.unicast = e.out[:0], e.outTo[:0], false
	return err
}

// ship frames fr and stages it for one peer or all of them. Encoding reuses
// frameScratch: the mux outbox copies every staged frame.
func (e *engine) ship(to sim.PartyID, fr wire.SessionRound) error {
	frame, err := appendSessionFrame(e.frameScratch[:0], fr)
	if err != nil {
		return err
	}
	e.frameScratch = frame
	if to == sim.Broadcast {
		e.m.d.mux.stageAll(frame)
	} else {
		e.m.d.mux.stage(to, frame)
	}
	return nil
}

// Announce broadcasts an async seat's decision announcement, its one empty
// done-marked frame. Decided peers keep amplifying RBC traffic for the rest,
// so there is nothing to purge — the mux ships frames in enqueue order.
func (e *engine) Announce() error {
	return e.ship(sim.Broadcast, wire.SessionRound{SID: e.s.sid, Round: 1, Done: true})
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
