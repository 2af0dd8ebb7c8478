package session

import (
	"fmt"
	"sync"
	"time"

	"treeaa/internal/sim"
)

// shard is one worker of the engine pool. Sessions hash to shards by id
// (sid mod the shard count); each shard owns its sessions' engines, their pending
// buffers (frames that outran the SessionOpen) and their tombstones, and
// steps ready engines from a run queue on one dedicated worker goroutine.
// The data plane — deliver, from the link readers — takes only this shard's
// mutex, never the manager's: per-frame contention on the global session
// table was a top serve-profile cost of the goroutine-per-session model.
//
// Lock order: Manager.mu before shard.mu, never the reverse. The worker
// holds shard.mu only to swap queues; engine stepping runs unlocked and may
// call into the manager (fail, finishSeat), which takes Manager.mu.
type shard struct {
	m *Manager

	mu         sync.Mutex
	engines    map[uint64]*engine
	dirty      []*engine // engines with queued work, deduplicated via engine.queued
	dirtySpare []*engine
	pending    map[uint64]*pendingBuf
	pendingN   int
	// Tombstones live in two generations so that collecting them never
	// scans them: an id is buried into tombs, sweep turns tombs into
	// oldTombs once it is linger old and drops the previous oldTombs whole.
	// An id therefore stays dead for at least linger and at most twice that.
	tombs      map[uint64]struct{}
	oldTombs   map[uint64]struct{}
	tombsSince time.Time // when tombs became the young generation

	kick chan struct{} // capacity 1: the dirty list became non-empty
	quit chan struct{}
	done chan struct{}
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

func newShard(m *Manager) *shard {
	return &shard{
		m:          m,
		engines:    make(map[uint64]*engine),
		pending:    make(map[uint64]*pendingBuf),
		tombs:      make(map[uint64]struct{}),
		tombsSince: time.Now(),
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// pendingPerSession bounds the frames buffered for one not-yet-opened
// session. In lock step at most one round of traffic can precede the open on
// any link, so a deep buffer only ever holds garbage. Async mode has no such
// invariant — the n−t seats that hold the open can run the whole protocol
// before the last seat's open lands — so there only the shard-wide bound
// applies.
func (sh *shard) pendingPerSession() int {
	if sh.m.d.opts.Async {
		return sh.pendingTotal()
	}
	return sh.m.d.opts.QueueDepth / 4
}

func (sh *shard) pendingTotal() int { return 16 * sh.m.d.opts.QueueDepth }

// deliver hands one raw in-session frame to the owning engine's queue and
// marks the engine ready. Unknown ids buffer (the open may still be in
// flight); tombstoned ids drop silently — late frames after eviction are
// expected, not errors.
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
	sh.mu.Unlock()
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
	if len(pb.evs) >= sh.pendingPerSession() || sh.pendingN >= sh.pendingTotal() {
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
	select {
	case sh.kick <- struct{}{}:
	default:
	}
}

// register adds an admitted session's engine and queues it for its first
// step, absorbing any frames that outran the admission in arrival order. A
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
	sh.mu.Unlock()
}

// wake queues the engine for a prompt run — the terminal transition calls
// this so an externally failed or evicted engine retires without waiting
// for the sweep.
func (sh *shard) wake(eng *engine) {
	sh.mu.Lock()
	sh.enqueueDirtyLocked(eng)
	sh.mu.Unlock()
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

// remove retires an engine: out of the run queue's reach, id tombstoned, its
// run state released. Only the worker calls it (run, sweep), which is what
// lets it touch the engine's worker-owned fields.
func (sh *shard) remove(eng *engine) {
	sh.mu.Lock()
	eng.gone = true
	delete(sh.engines, eng.s.sid)
	sh.buryLocked(eng.s.sid)
	eng.release()
	sh.mu.Unlock()
}

// worker is the shard's loop: drain the run queue on every kick, and sweep
// (barrier timeouts, pending and tombstone GC) on a coarse tick.
func (sh *shard) worker(sweepEvery time.Duration) {
	defer close(sh.done)
	ticker := time.NewTicker(sweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-sh.quit:
			return
		case <-sh.kick:
			sh.drain()
		case <-ticker.C:
			sh.drain()
			sh.sweep(time.Now())
		}
	}
}

// drain runs every dirty engine until the queue stays empty. The swap keeps
// shard.mu out of the stepping path, and the spare list makes the steady
// state allocation-free.
func (sh *shard) drain() {
	for {
		sh.mu.Lock()
		if len(sh.dirty) == 0 {
			sh.mu.Unlock()
			return
		}
		batch := sh.dirty
		sh.dirty = sh.dirtySpare[:0]
		sh.mu.Unlock()
		for i, eng := range batch {
			sh.run(eng)
			batch[i] = nil
		}
		sh.dirtySpare = batch[:0]
	}
}

// run gives one engine its turn: swap its queue out under the lock, step it
// unlocked, retire it if the seat finished. The in/inSpare double buffer
// mirrors the mux outbox — no per-turn allocation.
func (sh *shard) run(eng *engine) {
	sh.mu.Lock()
	if eng.gone {
		sh.mu.Unlock()
		return
	}
	evs := eng.in
	eng.in = eng.inSpare
	eng.inSpare = evs[:0]
	eng.queued = false
	sh.mu.Unlock()

	alive := eng.run(evs)
	for i := range evs {
		evs[i] = rawEvent{} // release the frame bytes for GC
	}
	if !alive {
		sh.remove(eng)
	}
}

// sweep enforces barrier deadlines, collects stale pending buffers and
// rotates the tombstone generations. Engine round state is worker-owned, and
// sweep runs on the worker, so the deadline reads need no lock.
func (sh *shard) sweep(now time.Time) {
	var victims []*engine
	sh.mu.Lock()
	for _, eng := range sh.engines {
		if eng.s.terminal.Load() || (!eng.watchdog.IsZero() && now.After(eng.watchdog)) {
			victims = append(victims, eng)
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
	for _, eng := range victims {
		if !eng.s.terminal.Load() {
			reason := fmt.Sprintf("daemon %d: async seat idle for %v while undecided (wedged run)",
				sh.m.d.id, sh.m.d.opts.RoundTimeout)
			if eng.rd != nil {
				reason = fmt.Sprintf("daemon %d: round %d barrier timed out after %v",
					sh.m.d.id, eng.rd.Round(), sh.m.d.opts.RoundTimeout)
			}
			sh.m.fail(eng.s, StateFailed, reason, true)
		}
		sh.remove(eng)
	}
}

func (sh *shard) stop() {
	close(sh.quit)
	<-sh.done
}
