package session

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treeaa/internal/sim"
)

// testShard is a shard on a bare manager whose daemon has the given mux
// (possibly none) and no listeners.
func testShard(m *mux) *shard {
	opts := Options{DefaultTTL: 30 * time.Second, SetupTimeout: time.Second, QueueDepth: 64}.withDefaults()
	return newShard(&Manager{d: &Daemon{opts: opts, mux: m}})
}

// TestDrainerExclusivity: many goroutines deliver to one shard at once, and
// a few more wake its engines the way a terminal transition does. Whoever
// delivers drains, unless somebody is draining already — so every event
// must be applied exactly once, no two engine turns may ever overlap (the
// turns' unsynchronised counters are the race detector's probe for that),
// and when the last deliverer has returned nothing may be left queued.
func TestDrainerExclusivity(t *testing.T) {
	const (
		engines    = 8
		deliverers = 16
		each       = 400
	)
	sh := testShard(&mux{}) // the shard goroutine flushes a mux after its turns
	var (
		inside   atomic.Int32
		overlaps atomic.Int32
		applied  = make(map[*engine]int)      // drainer-owned, like an engine's run state
		seen     = make(map[*engine][][2]int) // (deliverer, its sequence number)
	)
	sh.step = func(e *engine, evs []rawEvent) bool {
		if inside.Add(1) != 1 {
			overlaps.Add(1)
		}
		applied[e] += len(evs)
		for _, ev := range evs {
			seen[e] = append(seen[e], [2]int{int(ev.from), int(ev.body[0])<<8 | int(ev.body[1])})
		}
		runtime.Gosched() // hold the turn open across a scheduling point
		inside.Add(-1)
		return true
	}
	engs := make([]*engine, engines)
	for i := range engs {
		engs[i] = newEngine(sh.m, sh, &session{sid: uint64(i)}, parsedSpec{})
		sh.engines[uint64(i)] = engs[i]
	}
	go sh.worker(time.Hour)
	defer sh.stop()

	var wg sync.WaitGroup
	for g := 0; g < deliverers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sh.deliver(sim.PartyID(g), uint64((g+i)%engines), []byte{byte(i >> 8), byte(i)})
			}
		}(g)
	}
	var wakers sync.WaitGroup
	for _, eng := range engs[:2] {
		wakers.Add(1)
		go func(eng *engine) {
			defer wakers.Done()
			for i := 0; i < each; i++ {
				sh.wake(eng)
				runtime.Gosched()
			}
		}(eng)
	}
	wg.Wait()

	// Deliveries are drained by a deliverer, so they are all applied now; a
	// wake's empty turn may still be on its way to the shard goroutine.
	wakers.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		idle := !sh.draining && len(sh.dirty) == 0
		sh.mu.Unlock()
		if idle || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.draining || len(sh.dirty) != 0 || sh.head != 0 {
		t.Fatalf("shard not quiescent: draining=%v, %d queued from %d", sh.draining, len(sh.dirty), sh.head)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d engine turns overlapped another", n)
	}
	total := 0
	for _, eng := range engs {
		if eng.queued || len(eng.in) != 0 {
			t.Errorf("engine %d left dirty: queued=%v, %d events unread", eng.s.sid, eng.queued, len(eng.in))
		}
		total += applied[eng]
		// Per sender, a link's frames reach the engine in arrival order.
		last, count := make(map[int]int), make(map[int]int)
		for _, ev := range seen[eng] {
			if prev, ok := last[ev[0]]; ok && ev[1] <= prev {
				t.Errorf("engine %d saw deliverer %d's event %d after its %d", eng.s.sid, ev[0], ev[1], prev)
			}
			last[ev[0]] = ev[1]
			count[ev[0]]++
		}
		for from, n := range count {
			if n != each/engines {
				t.Errorf("engine %d saw %d events from deliverer %d, want %d", eng.s.sid, n, from, each/engines)
			}
		}
	}
	if total != deliverers*each {
		t.Errorf("applied %d events, delivered %d", total, deliverers*each)
	}
}

// TestDrainerIdleTickLeavesMuxAlone: the shard goroutines start with the
// manager, and their first ticks fire while the daemon is still replaying
// its journal, before it has a mux. A tick that ran no engine must not
// reach for one.
func TestDrainerIdleTickLeavesMuxAlone(t *testing.T) {
	sh := testShard(nil)
	sh.step = func(*engine, []rawEvent) bool { t.Error("an idle shard ran a turn"); return false }
	sh.sweep(time.Now())
	sh.drainDeferred()
	sh.bury(7)
	sh.deliver(0, 7, []byte{1}) // dropped: nothing to run either
	sh.drainDeferred()
}

// TestTombstoneGenerations drives one shard's sweep with a fake clock: a
// buried id stays dead for at least linger (2·DefaultTTL) whenever it was
// buried within a generation, and is forgotten once two rotations have
// passed — without sweep ever ranging over the tombstones.
func TestTombstoneGenerations(t *testing.T) {
	ttl := 30 * time.Second
	linger := 2 * ttl
	base := time.Unix(1_000_000, 0)
	sh := testShard(nil)
	sh.tombsSince = base
	tick := 50 * time.Millisecond

	sh.bury(1)                        // at the start of a generation
	sh.sweep(base.Add(linger - tick)) // not yet rotated
	sh.bury(2)                        // at the very end of the same generation
	for now := base.Add(linger); now.Before(base.Add(2*linger - tick)); now = now.Add(10 * time.Second) {
		sh.sweep(now) // the first of these rotates; the rest must not
		if !sh.dead(1) || !sh.dead(2) {
			t.Fatalf("at +%v: dead(1)=%v dead(2)=%v, want both honoured for at least linger after burial",
				now.Sub(base), sh.dead(1), sh.dead(2))
		}
	}
	if len(sh.tombs) != 0 || len(sh.oldTombs) != 2 {
		t.Fatalf("generations = %d young, %d old; want 0, 2 after one rotation", len(sh.tombs), len(sh.oldTombs))
	}
	sh.bury(3) // lands in the new young generation
	sh.sweep(base.Add(2 * linger))
	if sh.dead(1) || sh.dead(2) {
		t.Errorf("after 2·linger: dead(1)=%v dead(2)=%v, want the old generation dropped whole", sh.dead(1), sh.dead(2))
	}
	if !sh.dead(3) {
		t.Error("id buried after the first rotation forgotten by the second")
	}

	// Late frames for a dead id drop; frames for an unknown id buffer.
	sh.deliver(0, 3, []byte{1})
	sh.deliver(0, 4, []byte{1})
	if sh.pending[3] != nil || sh.pending[4] == nil || sh.pendingN != 1 {
		t.Errorf("pending after late frames: dead id buffered=%v, unknown id buffered=%v, total %d",
			sh.pending[3] != nil, sh.pending[4] != nil, sh.pendingN)
	}
	// A pre-open buffer that outlives SetupTimeout is buried by the sweep.
	sh.pending[4].since = base
	sh.sweep(base.Add(2*linger + tick))
	if sh.pending[4] != nil || sh.pendingN != 0 || !sh.dead(4) {
		t.Errorf("stale pending buffer: buffered=%v total=%d dead=%v, want buried", sh.pending[4] != nil, sh.pendingN, sh.dead(4))
	}
}

// TestRetiredSeatReleasesRunState: a finished session's table entry lingers
// for its TTL and more, and must not keep the seat's run alive with it — the
// machine, mailboxes, parsed space and frame queues go when the shard retires
// the engine, the assembled decides when the session turns terminal. What
// lingers is what Status answers from.
func TestRetiredSeatReleasesRunState(t *testing.T) {
	const n = 4
	c := startTestCluster(t, n, Options{})
	resp := submitAndWait(t, c, 1, Spec{Tree: "spider:3:3", T: 1, TTL: time.Minute})
	if !resp.Decided() {
		t.Fatalf("session not decided: %+v", resp)
	}
	for i := 0; i < n; i++ {
		m := c.Daemon(i).Manager()
		m.mu.Lock()
		s := m.table[resp.SID]
		m.mu.Unlock()
		if s == nil {
			t.Fatalf("daemon %d: no table entry for the lingering session", i)
		}
		held := func() string {
			m.mu.Lock()
			decides := s.decides != nil
			m.mu.Unlock()
			e := s.eng
			e.sh.mu.Lock()
			defer e.sh.mu.Unlock()
			return fmt.Sprintf("gone=%v decides=%v rd=%v ev=%v space=%v inputs=%v in=%v inSpare=%v scratch=%v",
				e.gone, decides, e.rd != nil, e.ev != nil, e.ps.space != nil, e.ps.inputs != nil,
				e.in != nil, e.inSpare != nil, e.frameScratch != nil)
		}
		const want = "gone=true decides=false rd=false ev=false space=false inputs=false in=false inSpare=false scratch=false"
		// A peer's seat retires a moment after it ships its decide.
		deadline := time.Now().Add(2 * time.Second)
		for held() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := held(); got != want {
			t.Errorf("daemon %d still holds run state:\n got %s\nwant %s", i, got, want)
		}
	}
	if out, ok := c.Daemon(1).Manager().Status(resp.SID); !ok || out.State != StateDecided || out.Result == nil {
		t.Errorf("origin status after release = %+v, %v; want the decided result", out, ok)
	}
}
