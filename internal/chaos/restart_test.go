package chaos_test

import (
	"testing"
	"time"

	"treeaa/internal/chaos"
	"treeaa/internal/metrics"
	"treeaa/internal/session"
)

// restartCell is one durability drill on a journaled 4-daemon cluster whose
// peer links run under a latency clause:
//
//	wave 1: decided sessions submitted to the victim, all acked decided;
//	wave 2: midKill sessions submitted without waiting, then the victim
//	        dies — by Kill (journal abandoned mid-buffer) or, when
//	        graceful, by a drained Restart;
//	wave 3: once the victim is back and the mesh heals, fresh sessions
//	        spread over every daemon.
//
// The durability line (DESIGN §11): every wave-1 session is still decided
// after recovery with a Result equal to its sim.Run oracle; a wave-2
// session may fail or vanish (its open can sit in the unsynced tail) but
// must not wedge; every wave-3 session decides against the healed mesh.
type restartCell struct {
	space                   string
	seed                    int64
	victim                  int
	decided, midKill, fresh int
	graceful                bool
}

func (rc restartCell) run(t *testing.T) {
	const (
		n   = 4
		ttl = 30 * time.Second
	)
	w, err := session.NewWorkload(rc.space, rc.seed, n, 0, ttl, max(rc.decided, rc.fresh), false)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.NewPlan("lat(base=200us,jitter=200us)", n)
	if err != nil {
		t.Fatal(err)
	}
	faults, serve := &metrics.ChaosStats{}, &metrics.ServeStats{}
	c, err := session.StartCluster(n, session.Options{
		MaxSessions:  rc.decided + rc.midKill + rc.fresh + n,
		SetupTimeout: 10 * time.Second, RoundTimeout: time.Minute, DefaultTTL: ttl,
		Stats:      serve,
		JournalDir: t.TempDir(), JournalSyncInterval: time.Millisecond,
		WrapConn: chaos.NewInjector(plan, rc.seed, faults).WrapConn,
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Stop(); err != nil {
			t.Errorf("cluster stop: %v", err)
		}
	})

	cl, err := session.DialClient(c.ClientAddr(rc.victim), 10*time.Second)
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	type acked struct {
		sid  uint64
		spec session.Spec
	}
	var wave1 []acked
	for i := 0; i < rc.decided; i++ {
		s := w.Spec(i)
		resp, err := cl.Submit(s, 0, true)
		if err != nil {
			t.Fatalf("wave-1 session %d: %v", i, err)
		}
		got, err := resp.SimResult()
		if err != nil {
			t.Fatalf("wave-1 session %d: %v", i, err)
		}
		if msg := w.Verify(s, got); msg != "" {
			t.Fatalf("wave-1 session %d before any fault: %s", i, msg)
		}
		wave1 = append(wave1, acked{sid: resp.SID, spec: s})
	}
	var wave2 []uint64
	for i := 0; i < rc.midKill; i++ {
		resp, err := cl.Submit(w.Spec(rc.decided+i), 0, false)
		if err != nil {
			t.Fatalf("wave-2 session %d: %v", i, err)
		}
		wave2 = append(wave2, resp.SID)
	}
	cl.Close()

	if rc.graceful {
		if err := c.Restart(rc.victim); err != nil {
			t.Fatalf("graceful restart: %v", err)
		}
	} else {
		if err := c.Kill(rc.victim); err != nil {
			t.Fatalf("kill: %v", err)
		}
		if err := c.Start(rc.victim); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if got := serve.RestoredTerminal.Load(); got < int64(len(wave1)) {
			t.Errorf("restored %d sealed sessions, want >= %d — recovery not exercised", got, len(wave1))
		}
	}
	healed := time.Now().Add(10 * time.Second)
	for i := 0; i < n; i++ {
		for c.Daemon(i).Health() != nil {
			if time.Now().After(healed) {
				t.Fatalf("daemon %d not healthy 10s after the restart: %v", i, c.Daemon(i).Health())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	cl, err = session.DialClient(c.ClientAddr(rc.victim), 10*time.Second)
	if err != nil {
		t.Fatalf("dial restarted victim: %v", err)
	}
	defer cl.Close()
	for i, a := range wave1 {
		resp, err := cl.Status(a.sid)
		if err != nil {
			t.Fatalf("decided session %#x lost by the restart: %v", a.sid, err)
		}
		got, err := resp.SimResult()
		if err != nil {
			t.Fatalf("decided session %#x regressed to %s after the restart", a.sid, resp.State)
		}
		if msg := w.Verify(a.spec, got); msg != "" {
			t.Fatalf("decided session %d after the restart: %s", i, msg)
		}
	}
	wedged := time.Now().Add(ttl + time.Minute)
	for _, sid := range wave2 {
		for {
			resp, err := cl.Status(sid)
			if err != nil {
				break // its open rode the unsynced tail
			}
			if resp.State == session.StateDecided.String() ||
				resp.State == session.StateFailed.String() ||
				resp.State == session.StateExpired.String() {
				break
			}
			if time.Now().After(wedged) {
				t.Fatalf("mid-kill session %#x wedged in state %s", sid, resp.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	if decided, failures := w.Drive(func(i int) string { return c.ClientAddr(i % n) }, rc.fresh, 10*time.Second); decided < rc.fresh {
		t.Fatalf("%d/%d fresh sessions decided after recovery: %v", decided, rc.fresh, failures)
	}
	if faults.Delays.Load() == 0 {
		t.Errorf("latency clause delayed nothing")
	}
}

// TestServeKillRestart is the durability soak: kill -9 of one daemon with
// six sessions decided and acked and four in flight, then a restart, on a
// tree and on a block graph. Zero decided sessions may be lost and every
// survivor's Result must equal sim.Run's.
func TestServeKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for _, space := range []string{"spider:3:3", "graph:cliquechain:3:4"} {
		t.Run(space, restartCell{space: space, seed: 7, victim: 1, decided: 6, midKill: 4, fresh: 6}.run)
	}
}

// TestServeGracefulRestart: a drained restart flushes pending decide frames
// and syncs the journal, so the same contract holds through it.
func TestServeGracefulRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	restartCell{space: "path:8", seed: 3, victim: 2, decided: 4, fresh: 4, graceful: true}.run(t)
}
