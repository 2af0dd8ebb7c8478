package session

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/sim"
)

// durableOpts returns cluster options with the journal enabled in a
// per-test temp directory and a tight sync interval so decide acks do not
// dominate test wall-clock.
func durableOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		JournalDir:          t.TempDir(),
		JournalSyncInterval: time.Millisecond,
	}
}

// pollUntil retries fn every few milliseconds until it returns nil or the
// deadline passes, failing the test with the last error.
func pollUntil(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	var last error
	for time.Now().Before(deadline) {
		if last = fn(); last == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s: not satisfied within %v: %v", what, d, last)
}

// TestKillRestartDecidedSurvive pins the journal's hard durability line: a
// session whose decide was acked to a client survives kill -9 with a
// byte-identical Result after restart, and the restarted daemon keeps
// admitting fresh sessions without id collisions. The contract is the same
// in both modes; an async outcome has no oracle — it depends on delivery
// order — so there the seal is the only record of what was decided, and the
// acked Result itself is what must come back.
func TestKillRestartDecidedSurvive(t *testing.T) {
	for name, async := range map[string]bool{"sync": false, "async": true} {
		t.Run(name, func(t *testing.T) {
			const victim = 1
			opts := durableOpts(t)
			opts.Async = async
			c := startTestCluster(t, 4, opts)

			specs := []Spec{
				{Tree: "path:8"},
				{Tree: "star:9"},
				{Tree: "spider:3:4"},
				{Tree: "random:12", Seed: 7},
				{Tree: "caterpillar:4:2"},
				{Tree: "figure3"},
				{Tree: "graph:cliquechain:3:4"},
			}
			type decided struct {
				sid  uint64
				want *sim.Result
			}
			var acked []decided
			for _, spec := range specs {
				resp := submitAndWait(t, c, victim, spec)
				got, err := resp.SimResult()
				if err != nil {
					t.Fatalf("pre-kill result %q: %v", spec.Tree, err)
				}
				if async {
					judgeAsyncResult(t, spec, 4, got, spec.Tree)
				} else if want, err := Oracle(4, spec); err != nil {
					t.Fatalf("oracle %q: %v", spec.Tree, err)
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("pre-kill result diverges for %q", spec.Tree)
				}
				acked = append(acked, decided{sid: resp.SID, want: got})
			}

			if err := c.Kill(victim); err != nil {
				t.Fatalf("kill: %v", err)
			}
			if err := c.Start(victim); err != nil {
				t.Fatalf("restart: %v", err)
			}

			if got := c.Daemon(victim).Stats().RestoredTerminal.Load(); got < int64(len(acked)) {
				t.Fatalf("restored %d sealed sessions, want >= %d", got, len(acked))
			}

			cl, err := DialClient(c.ClientAddr(victim), 5*time.Second)
			if err != nil {
				t.Fatalf("dial restarted daemon: %v", err)
			}
			defer cl.Close()
			for _, d := range acked {
				resp, err := cl.Status(d.sid)
				if err != nil {
					t.Fatalf("status %#x after restart: %v", d.sid, err)
				}
				got, err := resp.SimResult()
				if err != nil {
					t.Fatalf("session %#x lost its decided outcome: %v", d.sid, err)
				}
				if !reflect.DeepEqual(got, d.want) {
					t.Fatalf("session %#x result diverges after restart:\n got %+v\nwant %+v",
						d.sid, got, d.want)
				}
			}

			// The restored id range must not collide with fresh admissions.
			pollUntil(t, 10*time.Second, "post-restart admission", func() error {
				return allHealthy(c)
			})
			for i := 0; i < 3; i++ {
				resp, err := cl.Submit(Spec{Tree: "path:8"}, 0, true)
				if err != nil {
					t.Fatalf("fresh submit %d after restart: %v", i, err)
				}
				if !resp.Decided() {
					t.Fatalf("fresh session %d after restart: state %s (%s)", i, resp.State, resp.Err)
				}
			}
		})
	}
}

func allHealthy(c *Cluster) error {
	for i := 0; i < c.n; i++ {
		if err := c.Daemon(i).Health(); err != nil {
			return fmt.Errorf("daemon %d: %w", i, err)
		}
	}
	return nil
}

// TestDegradedRefusesAdmission verifies the outage contract: while a peer
// link is down the surviving daemons refuse new admissions with a retryable
// error, and re-open once the seat comes back and the mesh heals.
func TestDegradedRefusesAdmission(t *testing.T) {
	const victim = 2
	c := startTestCluster(t, 3, durableOpts(t))

	submitAndWait(t, c, 0, Spec{Tree: "path:8"}) // sanity: healthy cluster decides

	if err := c.Kill(victim); err != nil {
		t.Fatalf("kill: %v", err)
	}
	pollUntil(t, 10*time.Second, "degraded detection", func() error {
		if err := c.Daemon(0).Health(); err == nil {
			return fmt.Errorf("daemon 0 still reports healthy")
		}
		return nil
	})
	cl, err := DialClient(c.ClientAddr(0), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Submit(Spec{Tree: "path:8"}, 0, true); err == nil {
		t.Fatal("submit accepted while the cluster is degraded")
	} else if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("degraded rejection should say so, got: %v", err)
	}

	if err := c.Start(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	pollUntil(t, 10*time.Second, "mesh heal", func() error { return allHealthy(c) })
	resp, err := cl.Submit(Spec{Tree: "path:8"}, 0, true)
	if err != nil {
		t.Fatalf("submit after heal: %v", err)
	}
	if !resp.Decided() {
		t.Fatalf("post-heal session: state %s (%s)", resp.State, resp.Err)
	}
}

// TestGracefulRestartKeepsDecided exercises the rolling-restart building
// block: a drained shutdown syncs every seal, and the restarted seat serves
// both the old outcomes and new sessions.
func TestGracefulRestartKeepsDecided(t *testing.T) {
	const victim = 3
	c := startTestCluster(t, 4, durableOpts(t))

	var sids []uint64
	want, err := Oracle(4, Spec{Tree: "spider:3:4"})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i := 0; i < 4; i++ {
		resp := submitAndWait(t, c, victim, Spec{Tree: "spider:3:4"})
		sids = append(sids, resp.SID)
	}

	if err := c.Restart(victim); err != nil {
		t.Fatalf("graceful restart: %v", err)
	}
	cl, err := DialClient(c.ClientAddr(victim), 5*time.Second)
	if err != nil {
		t.Fatalf("dial restarted daemon: %v", err)
	}
	defer cl.Close()
	for _, sid := range sids {
		resp, err := cl.Status(sid)
		if err != nil {
			t.Fatalf("status %#x: %v", sid, err)
		}
		got, err := resp.SimResult()
		if err != nil {
			t.Fatalf("session %#x lost across graceful restart: %v", sid, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %#x result diverges after graceful restart", sid)
		}
	}
	pollUntil(t, 10*time.Second, "post-restart admission", func() error { return allHealthy(c) })
	resp, err := cl.Submit(Spec{Tree: "path:8"}, 0, true)
	if err != nil {
		t.Fatalf("fresh submit: %v", err)
	}
	if !resp.Decided() {
		t.Fatalf("fresh session after graceful restart: state %s (%s)", resp.State, resp.Err)
	}
}

// TestKillRestartMidFlight kills a daemon with sessions still running. The
// durability contract promises them nothing but a prompt, terminal answer:
// every such session whose open survived reports failed the moment the
// victim is back — not after its TTL — and the cluster must decide fresh
// sessions.
func TestKillRestartMidFlight(t *testing.T) {
	const victim = 0
	opts := durableOpts(t)
	opts.JournalStats = &journal.Stats{}
	opts.WrapConn = slowLinks(20 * time.Millisecond)
	c := startTestCluster(t, 4, opts)

	cl, err := DialClient(c.ClientAddr(victim), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var sids []uint64
	for i := 0; i < 4; i++ {
		resp, err := cl.Submit(Spec{Tree: "path:16", TTL: time.Minute}, 0, false)
		if err != nil {
			t.Fatalf("async submit: %v", err)
		}
		sids = append(sids, resp.SID)
	}
	cl.Close()
	// Let the opens reach the disk (the sessions themselves need seconds on
	// these links), so the kill finds them admitted, durable and unsealed.
	pollUntil(t, 5*time.Second, "opens synced", func() error {
		if d := opts.JournalStats.Depth.Load(); d != 0 {
			return fmt.Errorf("%d records not yet durable", d)
		}
		return nil
	})

	if err := c.Kill(victim); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := c.Start(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	cl, err = DialClient(c.ClientAddr(victim), 5*time.Second)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer cl.Close()
	for _, sid := range sids {
		resp, err := cl.Status(sid)
		if err != nil {
			t.Fatalf("session %#x: durable open lost by restart: %v", sid, err)
		}
		// The reason is reasonRestarted, or the link-down failure the dying
		// incarnation managed to seal: the in-process kill tears the mux down
		// a beat before it abandons the journal.
		if resp.State != StateFailed.String() {
			t.Fatalf("session %#x after restart: state %s (%s), want failed", sid, resp.State, resp.Err)
		}
	}
	pollUntil(t, 10*time.Second, "post-restart admission", func() error { return allHealthy(c) })
	want, err := Oracle(4, Spec{Tree: "star:9"})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	resp, err := cl.Submit(Spec{Tree: "star:9"}, 0, true)
	if err != nil {
		t.Fatalf("fresh submit: %v", err)
	}
	got, err := resp.SimResult()
	if err != nil {
		t.Fatalf("fresh session: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fresh post-restart result diverges from oracle")
	}
}
