package session

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// testShard is the one shard of a bare manager whose daemon has the given
// mux (possibly none) and no listeners. The manager's timekeeper is not
// running: a test starts it, or makes its passes by hand.
func testShard(m *transport.Mux) *shard {
	opts := Options{DefaultTTL: 30 * time.Second, SetupTimeout: time.Second}.withDefaults()
	mgr := &Manager{d: &Daemon{n: 4, opts: opts, mux: m}, sweepEvery: time.Hour,
		kick: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	mgr.shards = []*shard{newShard(mgr)}
	return mgr.shards[0]
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
	sh := testShard(&transport.Mux{}) // the timekeeper flushes a mux after its turns
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
	go sh.m.timekeeper()
	defer sh.m.stop()

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
	// wake's empty turn may still be on its way to the timekeeper.
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

// TestDrainerIdleTickLeavesMuxAlone: the timekeeper starts with the manager,
// and its first ticks fire while the daemon is still replaying its journal,
// before it has a mux. A pass that ran no engine must not reach for one.
func TestDrainerIdleTickLeavesMuxAlone(t *testing.T) {
	sh := testShard(nil)
	sh.step = func(*engine, []rawEvent) bool { t.Error("an idle shard ran a turn"); return false }
	sh.m.pass(time.Now())
	sh.bury(7)
	sh.deliver(0, 7, []byte{1}) // dropped: nothing to run either
	sh.m.pass(time.Now())
}

// TestTimekeeperOnePass hands the timekeeper's pass a clock reading of the
// test's choosing, over a real two-daemon mesh. One pass must do everything
// time and wake leave to it: expire the session past its deadline, fail the
// seat past its barrier deadline, retire both engines (each queued by the
// wake of its terminal transition), give a third engine that only wake has
// queued its first turn — and write the round that turn staged, itself.
func TestTimekeeperOnePass(t *testing.T) {
	type frame struct {
		typ byte
		sid uint64
	}
	var (
		mu   sync.Mutex
		seen []frame
	)
	stats := &metrics.ServeStats{}
	opts := Options{Stats: stats}.withDefaults()
	muxes := startTestMeshes(t, 2, opts, func(me, from sim.PartyID, body []byte) {
		if me != 1 {
			return
		}
		typ, sid, err := wire.PeekSession(body)
		if err != nil {
			t.Errorf("peer read a bad frame: %v", err)
		}
		mu.Lock()
		seen = append(seen, frame{typ, sid})
		mu.Unlock()
	})
	d := &Daemon{id: 0, n: 2, opts: opts, mux: muxes[0]}
	m := newManager(d)
	m.stop() // every pass below is the test's

	admit := func(sid uint64, ttl time.Duration) *session {
		ps, err := parseSpec(Spec{Tree: "path:4", TTL: ttl}, d.n, opts.DefaultTTL)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		s, err := m.admitLocked(sid, d.id, ps)
		if err != nil {
			t.Fatal(err)
		}
		sh := s.eng.sh
		sh.mu.Lock()
		sh.engines[sid] = s.eng
		sh.mu.Unlock()
		return s
	}
	overdue := admit(1, time.Second)
	stuck := admit(2, time.Hour)
	stuck.eng.watchdog.Store(time.Now().UnixNano())
	stuck.eng.awaited.Store(3)
	fresh := admit(3, time.Hour)
	fresh.eng.sh.wake(fresh.eng)
	// The aborts of the other two are enqueued, which wakes the link's
	// flusher; fresh's round is only staged. Its turn waits until the peer
	// has read the aborts, so the round cannot ride with them: it leaves
	// because the pass writes after its turns, or not at all.
	run := fresh.eng.sh.step
	fresh.eng.sh.step = func(e *engine, evs []rawEvent) bool {
		for deadline := time.Now().Add(5 * time.Second); e == fresh.eng && time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			mu.Lock()
			aborts := len(seen)
			mu.Unlock()
			if aborts == 2 {
				break
			}
		}
		return run(e, evs)
	}

	m.pass(time.Now().Add(2 * time.Second))

	for _, c := range []struct {
		s      *session
		state  State
		reason string
	}{
		{overdue, StateExpired, "deadline exceeded"},
		{stuck, StateFailed, "round 3 barrier timed out"},
		{fresh, StateRunning, ""},
	} {
		out, _ := m.Status(c.s.sid)
		if out.State != c.state || !strings.Contains(out.Err, c.reason) {
			t.Errorf("session %d after the pass: %s (%q), want %s (%q)", c.s.sid, out.State, out.Err, c.state, c.reason)
		}
		sh := c.s.eng.sh
		sh.mu.Lock()
		_, seated := sh.engines[c.s.sid]
		if retired := c.state.Terminal(); c.s.eng.gone != retired || seated == retired || c.s.eng.queued {
			t.Errorf("session %d after the pass: engine gone=%v seated=%v queued=%v, want retired=%v and nothing queued",
				c.s.sid, c.s.eng.gone, seated, c.s.eng.queued, retired)
		}
		sh.mu.Unlock()
	}
	if turns := stats.TurnsDeferred.Load(); turns != 3 {
		t.Errorf("%d deferred turns, want one per engine", turns)
	}
	want := []frame{{wire.TypeSessionAbort, 1}, {wire.TypeSessionAbort, 2}, {wire.TypeSessionRound, 3}}
	pollUntil(t, 5*time.Second, "the pass's frames at the peer", func() error {
		mu.Lock()
		defer mu.Unlock()
		got := make(map[frame]int)
		for _, f := range seen {
			got[f]++
		}
		for _, f := range want {
			if got[f] != 1 {
				return fmt.Errorf("frame type %#x for session %d arrived %d times; all frames: %v", f.typ, f.sid, got[f], seen)
			}
		}
		if len(seen) != len(want) {
			return fmt.Errorf("peer received %v, want only %v", seen, want)
		}
		return nil
	})
}

// TestDaemonBackgroundGoroutines: an idle cluster's goroutine dump holds one
// timekeeper per daemon, and no shard has a goroutine of its own.
func TestDaemonBackgroundGoroutines(t *testing.T) {
	const n = 4
	startTestCluster(t, n, Options{})
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	if got := strings.Count(dump, "(*Manager).timekeeper("); got != n {
		t.Errorf("%d timekeeper goroutines in an idle %d-daemon cluster, want one per daemon", got, n)
	}
	for _, gone := range []string{"shard).worker", "evictLoop"} {
		if strings.Contains(dump, gone) {
			t.Errorf("goroutine dump has a frame containing %q:\n%s", gone, dump)
		}
	}
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
			return fmt.Sprintf("gone=%v decides=%v rd=%v ev=%v space=%v inputs=%v in=%v inSpare=%v",
				e.gone, decides, e.rd != nil, e.ev != nil, e.ps.space != nil, e.ps.inputs != nil,
				e.in != nil, e.inSpare != nil)
		}
		const want = "gone=true decides=false rd=false ev=false space=false inputs=false in=false inSpare=false"
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
