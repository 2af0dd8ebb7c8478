package session

import (
	"fmt"
	"testing"
	"time"
)

// TestTombstoneGenerations drives one shard's sweep with a fake clock: a
// buried id stays dead for at least linger (2·DefaultTTL) whenever it was
// buried within a generation, and is forgotten once two rotations have
// passed — without sweep ever ranging over the tombstones.
func TestTombstoneGenerations(t *testing.T) {
	ttl := 30 * time.Second
	linger := 2 * ttl
	base := time.Unix(1_000_000, 0)
	sh := newShard(&Manager{d: &Daemon{opts: Options{DefaultTTL: ttl, SetupTimeout: time.Second, QueueDepth: 64}}})
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
