package session

import (
	"fmt"
	"sync"
	"time"

	"treeaa/internal/sim"
)

// shard is one slice of the engine pool. Sessions hash to shards by id
// (sid mod the shard count); each shard owns its sessions' engines, their
// pending buffers (frames that outran the SessionOpen) and their tombstones,
// and a run queue of engines with work.
//
// Whoever gives an engine work steps it: deliver (a link reader) and
// register (a link reader, or the client goroutine of a Submit) drain the
// run queue on their own goroutine, so the frame that completes a barrier is
// decoded, the round stepped and its sends staged without a hand-off. One
// goroutine drains at a time — the draining flag, under shard.mu — and a
// caller that finds it set leaves its work to the drainer, which re-reads the
// queue under the same lock before it clears the flag, so no wake-up is lost
// and an engine's run state has one owner at any moment (drainer-owned).
// A shard has no goroutine of its own: the manager's timekeeper sweeps it,
// and drains it for wake — a terminal transition holds Manager.mu, and an
// engine turn may need it.
//
// The data plane takes only this shard's mutex, never the manager's:
// per-frame contention on the global session table was a top serve-profile
// cost of the goroutine-per-session model.
//
// Lock order: Manager.mu before shard.mu, never the reverse. A drainer holds
// shard.mu only around the queue; engine stepping runs unlocked and may
// call into the manager (fail, finishSeat), which takes Manager.mu.
type shard struct {
	m *Manager
	// step runs one engine turn; (*engine).run outside tests.
	step func(*engine, []rawEvent) bool

	mu       sync.Mutex
	engines  map[uint64]*engine
	dirty    []*engine // engines with queued work, deduplicated via engine.queued
	head     int       // dirty[head:] is still to run; the drainer advances it
	draining bool      // a goroutine is running the queue and will see additions
	pending  map[uint64]*pendingBuf
	pendingN int
	// pendingPer bounds the frames buffered for one not-yet-opened session.
	// In lock step at most one frame — a peer's first round — can precede the
	// open on any link, so a deeper buffer only ever holds garbage. Async mode
	// has no such invariant — the n−t seats that hold the open can run the
	// whole protocol before the last seat's open lands — so there only the
	// shard-wide bound, pendingMax, applies.
	pendingPer, pendingMax int
	// Tombstones live in two generations so that collecting them never
	// scans them: an id is buried into tombs, sweep turns tombs into
	// oldTombs once it is linger old and drops the previous oldTombs whole.
	// An id therefore stays dead for at least linger and at most twice that.
	tombs      map[uint64]struct{}
	oldTombs   map[uint64]struct{}
	tombsSince time.Time // when tombs became the young generation
}

// pendingBuf buffers raw frames for a session whose open has not arrived
// yet (the open travels origin→peer while data arrives over every link).
// Bounded per session and per shard. A buffer that hits a bound drops its
// frames and stays behind as an overflow marker, so the open — whenever it
// lands — fails the session instead of seating an engine with a hole in its
// input.
type pendingBuf struct {
	since    time.Time
	evs      []rawEvent
	overflow bool
}

// reasonPreOpenOverflow is the failure reason of a session whose pre-open
// buffer overflowed on some daemon.
const reasonPreOpenOverflow = "pre-open buffer overflow"

// pendingPerShard bounds the pre-open frames one shard buffers in all.
const pendingPerShard = 16 * 256

func newShard(m *Manager) *shard {
	perSession := m.d.n - 1 // a frame per link
	if m.d.opts.Async {
		perSession = pendingPerShard
	}
	return &shard{
		m:          m,
		step:       (*engine).run,
		engines:    make(map[uint64]*engine),
		pending:    make(map[uint64]*pendingBuf),
		pendingPer: perSession,
		pendingMax: pendingPerShard,
		tombs:      make(map[uint64]struct{}),
		tombsSince: time.Now(),
	}
}

// deliver hands one raw in-session frame to the owning engine and runs the
// engine, on the calling link reader, unless another goroutine is draining
// the shard already. Unknown ids buffer (the open may still be in flight);
// tombstoned ids drop silently — late frames after eviction are expected,
// not errors.
func (sh *shard) deliver(from sim.PartyID, sid uint64, body []byte) {
	sh.mu.Lock()
	eng := sh.engines[sid]
	if eng == nil {
		if !sh.deadLocked(sid) {
			sh.bufferPendingLocked(sid, rawEvent{from: from, body: body})
		}
		sh.mu.Unlock()
		return
	}
	eng.in = append(eng.in, rawEvent{from: from, body: body})
	sh.enqueueDirtyLocked(eng)
	sh.drainLocked(true)
}

func (sh *shard) bufferPendingLocked(sid uint64, ev rawEvent) {
	pb := sh.pending[sid]
	if pb == nil {
		pb = &pendingBuf{since: time.Now()}
		sh.pending[sid] = pb
	}
	if pb.overflow {
		return
	}
	if len(pb.evs) >= sh.pendingPer || sh.pendingN >= sh.pendingMax {
		sh.pendingN -= len(pb.evs)
		pb.evs, pb.overflow = nil, true
		return
	}
	pb.evs = append(pb.evs, ev)
	sh.pendingN++
}

func (sh *shard) enqueueDirtyLocked(eng *engine) {
	if eng.queued || eng.gone {
		return
	}
	eng.queued = true
	sh.dirty = append(sh.dirty, eng)
}

// register adds an admitted session's engine and runs its first step on the
// calling goroutine (unless the shard is being drained already), absorbing
// any frames that outran the admission in arrival order. A caller that is not
// a link reader owes the mux a flushDry afterwards. A
// session that went terminal before registration (eviction or a peer's
// rejection racing the admit) is buried instead, and one whose pre-open
// buffer overflowed here is failed cluster-wide: its seat would have
// silently lost frames.
func (sh *shard) register(eng *engine) {
	sh.mu.Lock()
	pb := sh.pending[eng.s.sid]
	if eng.s.terminal.Load() || (pb != nil && pb.overflow) {
		eng.gone = true
		sh.buryLocked(eng.s.sid)
		sh.mu.Unlock()
		if pb != nil && pb.overflow {
			sh.m.fail(eng.s, StateFailed,
				fmt.Sprintf("daemon %d: %s", sh.m.d.id, reasonPreOpenOverflow), true)
		}
		return
	}
	sh.engines[eng.s.sid] = eng
	if pb != nil {
		delete(sh.pending, eng.s.sid)
		sh.pendingN -= len(pb.evs)
		eng.in = append(eng.in, pb.evs...)
	}
	sh.enqueueDirtyLocked(eng)
	sh.drainLocked(true)
}

// wake queues the engine for a prompt run — the terminal transition calls
// this so an externally failed or evicted engine retires without waiting
// for the sweep. Its caller holds Manager.mu, which an engine turn may take,
// so wake never drains: the queue goes to whoever is draining, or else to
// the timekeeper.
func (sh *shard) wake(eng *engine) {
	sh.mu.Lock()
	sh.enqueueDirtyLocked(eng)
	idle := !sh.draining && sh.head < len(sh.dirty)
	sh.mu.Unlock()
	if idle {
		select {
		case sh.m.kick <- struct{}{}:
		default:
		}
	}
}

// bury tombstones a session id so late frames drop instead of buffering.
func (sh *shard) bury(sid uint64) {
	sh.mu.Lock()
	sh.buryLocked(sid)
	sh.mu.Unlock()
}

func (sh *shard) buryLocked(sid uint64) {
	sh.tombs[sid] = struct{}{}
	if pb := sh.pending[sid]; pb != nil {
		sh.pendingN -= len(pb.evs)
		delete(sh.pending, sid)
	}
}

// dead reports whether sid was recently buried (the recently-used check for
// client-chosen session ids).
func (sh *shard) dead(sid uint64) bool {
	sh.mu.Lock()
	ok := sh.deadLocked(sid)
	sh.mu.Unlock()
	return ok
}

func (sh *shard) deadLocked(sid uint64) bool {
	if _, ok := sh.tombs[sid]; ok {
		return true
	}
	_, ok := sh.oldTombs[sid]
	return ok
}

// removeLocked retires an engine: out of the run queue's reach, id
// tombstoned, its run state released. Only the drainer calls it, which is
// what lets it touch the engine's drainer-owned fields.
func (sh *shard) removeLocked(eng *engine) {
	eng.gone = true
	delete(sh.engines, eng.s.sid)
	sh.buryLocked(eng.s.sid)
	eng.release()
}

// drainLocked runs queued engines until the queue is empty, unless another
// goroutine is doing so already, and returns how many turns it ran. Called
// with shard.mu held, it returns with it released; the lock is dropped
// around each turn. An engine's queue is swapped out for its turn and back
// in after — the in/inSpare double buffer mirrors the mux outbox, no
// per-turn allocation — and a seat that finished is retired on the spot.
func (sh *shard) drainLocked(inline bool) (turns int) {
	if sh.draining {
		sh.mu.Unlock()
		return 0
	}
	sh.draining = true
	for sh.head < len(sh.dirty) {
		eng := sh.dirty[sh.head]
		sh.dirty[sh.head] = nil
		sh.head++
		if eng.gone {
			continue
		}
		evs := eng.in
		eng.in, eng.inSpare = eng.inSpare, nil
		eng.queued = false
		sh.mu.Unlock()

		alive := sh.step(eng, evs)
		clear(evs) // release the frame bytes for GC
		turns++

		sh.mu.Lock()
		if alive {
			eng.inSpare = evs[:0]
		} else {
			sh.removeLocked(eng)
		}
	}
	sh.dirty, sh.head = sh.dirty[:0], 0
	sh.draining = false
	sh.mu.Unlock()
	if s := sh.m.stats(); s != nil && turns > 0 {
		if inline {
			s.TurnsInline.Add(int64(turns))
		} else {
			s.TurnsDeferred.Add(int64(turns))
		}
	}
	return turns
}

// sweep enforces barrier deadlines, collects stale pending buffers and
// rotates the tombstone generations. It runs beside whoever is draining, so
// it reads an engine's deadline atomically and retires nothing itself: a
// timed-out seat is failed, which queues its engine, and the next turn of
// any terminal engine ends with the drainer removing it.
func (sh *shard) sweep(now time.Time) {
	var late, ended []*engine
	nowNS := now.UnixNano()
	sh.mu.Lock()
	for _, eng := range sh.engines {
		if eng.s.terminal.Load() {
			ended = append(ended, eng)
		} else if at := eng.watchdog.Load(); at != 0 && nowNS > at {
			late = append(late, eng)
		}
	}
	for sid, pb := range sh.pending {
		if now.Sub(pb.since) > sh.m.d.opts.SetupTimeout {
			sh.buryLocked(sid)
		}
	}
	if linger := 2 * sh.m.d.opts.DefaultTTL; now.Sub(sh.tombsSince) >= linger {
		sh.oldTombs, sh.tombs, sh.tombsSince = sh.tombs, make(map[uint64]struct{}), now
	}
	sh.mu.Unlock()
	opts := &sh.m.d.opts
	for _, eng := range late {
		reason := fmt.Sprintf("daemon %d: round %d barrier timed out after %v",
			sh.m.d.id, eng.awaited.Load(), opts.RoundTimeout)
		if opts.Async {
			reason = fmt.Sprintf("daemon %d: async seat idle for %v while undecided (wedged run)",
				sh.m.d.id, opts.RoundTimeout)
		}
		sh.m.fail(eng.s, StateFailed, reason, true) // wakes the engine
	}
	for _, eng := range ended {
		sh.wake(eng)
	}
}
