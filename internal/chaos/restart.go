package chaos

import (
	"fmt"
	"os"
	"sync"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/metrics"
	"treeaa/internal/session"
)

// KillRestartSpec is one durability soak cell: a journaled daemon cluster,
// a wave of decided sessions, a kill -9 of one daemon mid-load, and a
// restart that must prove the durability contract.
type KillRestartSpec struct {
	Tree   string
	N, T   int
	Seed   int64
	Victim int // daemon to kill and restart

	Decided  int  // wave-1 sessions decided (and acked) before the kill
	MidKill  int  // wave-2 sessions submitted async, still running at the kill
	Fresh    int  // wave-3 sessions submitted after recovery
	Graceful bool // drain+flush restart instead of kill -9

	JournalDir   string // empty = private temp dir, removed afterwards
	TTL          time.Duration
	SetupTimeout time.Duration
	RoundTimeout time.Duration
}

// KillRestartReport is the cell's outcome. The hard assertions: every
// wave-1 session survives the restart decided with an oracle-identical
// Result (zero lost decided sessions), and every wave-3 session decides.
type KillRestartReport struct {
	Tree     string `json:"tree"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	Victim   int    `json:"victim"`
	Graceful bool   `json:"graceful"`

	DecidedBeforeKill int `json:"decided_before_kill"`
	SurvivedRestart   int `json:"survived_restart"` // wave-1 sessions still decided afterwards
	OracleMatches     int `json:"oracle_matches"`   // of those, byte-identical to sim.Run
	MidKillTerminal   int `json:"mid_kill_terminal"`
	MidKillLost       int `json:"mid_kill_lost"` // unacked opens in the unsynced tail (allowed)
	FreshDecided      int `json:"fresh_decided"`

	RestoredSealed int64 `json:"restored_sealed"`

	Err string `json:"err,omitempty"`
}

// Passed reports whether the cell proved the contract: no decided session
// lost, every survivor oracle-identical, recovery live.
func (r *KillRestartReport) Passed() bool {
	return r.Err == "" &&
		r.SurvivedRestart == r.DecidedBeforeKill &&
		r.OracleMatches == r.DecidedBeforeKill
}

// RunServeKillRestart runs one durability cell against an in-process
// journaled cluster:
//
//	wave 1: Decided sessions submitted to the victim, all acked decided;
//	wave 2: MidKill sessions submitted async, then the victim dies — by
//	        Kill (abrupt, journal abandoned mid-buffer) or Restart
//	        (graceful drain) per Graceful;
//	wave 3: after the victim is back and the mesh heals, Fresh sessions.
//
// The report asserts the durability line from DESIGN §11: every session
// acked decided before the kill is still decided after recovery with a
// Result DeepEqual to sim.Run; mid-kill sessions may fail or vanish (their
// open can sit in the unsynced tail) but must not wedge; fresh sessions
// must decide against a healed mesh.
func RunServeKillRestart(spec KillRestartSpec) (*KillRestartReport, error) {
	rep := &KillRestartReport{Tree: spec.Tree, N: spec.N, Seed: spec.Seed,
		Victim: spec.Victim, Graceful: spec.Graceful}
	if spec.Victim < 0 || spec.Victim >= spec.N {
		return nil, fmt.Errorf("chaos: victim %d out of range [0, %d)", spec.Victim, spec.N)
	}
	if spec.Decided < 1 {
		return nil, fmt.Errorf("chaos: kill-restart needs at least 1 decided-wave session")
	}
	sp, err := cli.ParseSpaceSpec(spec.Tree, spec.Seed)
	if err != nil {
		return nil, err
	}
	w, err := session.NewWorkload(sp, spec.Seed, spec.N, spec.T, spec.TTL,
		max(spec.Decided, spec.Fresh), false)
	if err != nil {
		return nil, err
	}
	dir := spec.JournalDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "treeaa-killrestart-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	serveStats := &metrics.ServeStats{}
	cluster, err := session.StartCluster(spec.N, session.Options{
		MaxSessions:         spec.Decided + spec.MidKill + spec.Fresh + spec.N,
		SetupTimeout:        spec.SetupTimeout,
		RoundTimeout:        spec.RoundTimeout,
		DefaultTTL:          spec.TTL,
		Stats:               serveStats,
		JournalDir:          dir,
		JournalSyncInterval: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	// Wave 1: decided and acked before the kill. These carry the contract.
	type ackedSession struct {
		sid  uint64
		spec session.Spec
	}
	var acked []ackedSession
	for i := 0; i < spec.Decided; i++ {
		cl, err := session.DialClient(cluster.ClientAddr(spec.Victim), spec.SetupTimeout)
		if err != nil {
			return nil, fmt.Errorf("chaos: wave-1 dial: %w", err)
		}
		s := w.Spec(i)
		resp, err := cl.Submit(s, 0, true)
		cl.Close()
		if err != nil {
			return nil, fmt.Errorf("chaos: wave-1 session %d: %w", i, err)
		}
		got, err := resp.SimResult()
		if err != nil {
			return nil, fmt.Errorf("chaos: wave-1 session %d: %w", i, err)
		}
		if msg := w.Verify(s, got); msg != "" {
			rep.Err = fmt.Sprintf("wave-1 session %d before any fault: %s", i, msg)
			return rep, nil
		}
		acked = append(acked, ackedSession{sid: resp.SID, spec: s})
	}
	rep.DecidedBeforeKill = len(acked)

	// Wave 2: in flight when the daemon dies.
	var midKill []uint64
	if spec.MidKill > 0 {
		cl, err := session.DialClient(cluster.ClientAddr(spec.Victim), spec.SetupTimeout)
		if err != nil {
			return nil, fmt.Errorf("chaos: wave-2 dial: %w", err)
		}
		for i := 0; i < spec.MidKill; i++ {
			resp, err := cl.Submit(w.Spec(spec.Decided+i), 0, false)
			if err != nil {
				break // admission may close mid-wave once the kill lands; fine
			}
			midKill = append(midKill, resp.SID)
		}
		cl.Close()
	}

	if spec.Graceful {
		if err := cluster.Restart(spec.Victim); err != nil {
			return nil, fmt.Errorf("chaos: graceful restart: %w", err)
		}
	} else {
		if err := cluster.Kill(spec.Victim); err != nil {
			return nil, fmt.Errorf("chaos: kill: %w", err)
		}
		if err := cluster.Start(spec.Victim); err != nil {
			return nil, fmt.Errorf("chaos: restart: %w", err)
		}
	}
	if err := waitHealthy(cluster, spec.N, spec.SetupTimeout); err != nil {
		return nil, err
	}
	rep.RestoredSealed = serveStats.RestoredTerminal.Load()

	// The contract check: zero lost decided sessions, byte-identical results.
	cl, err := session.DialClient(cluster.ClientAddr(spec.Victim), spec.SetupTimeout)
	if err != nil {
		return nil, fmt.Errorf("chaos: post-restart dial: %w", err)
	}
	defer cl.Close()
	for i, a := range acked {
		resp, err := cl.Status(a.sid)
		if err != nil {
			if rep.Err == "" {
				rep.Err = fmt.Sprintf("decided session %#x lost by restart: %v", a.sid, err)
			}
			continue
		}
		got, err := resp.SimResult()
		if err != nil {
			if rep.Err == "" {
				rep.Err = fmt.Sprintf("decided session %#x regressed to %s after restart", a.sid, resp.State)
			}
			continue
		}
		rep.SurvivedRestart++
		if msg := w.Verify(a.spec, got); msg == "" {
			rep.OracleMatches++
		} else if rep.Err == "" {
			rep.Err = fmt.Sprintf("decided session %d after restart: %s", i, msg)
		}
	}

	// Mid-kill liveness: each wave-2 session must either be gone (its open
	// rode the unsynced tail) or reach a terminal state — never wedge.
	deadline := time.Now().Add(spec.TTL + spec.RoundTimeout)
	for _, sid := range midKill {
		for {
			resp, err := cl.Status(sid)
			if err != nil {
				rep.MidKillLost++
				break
			}
			if resp.State == session.StateDecided.String() ||
				resp.State == session.StateFailed.String() ||
				resp.State == session.StateExpired.String() {
				rep.MidKillTerminal++
				break
			}
			if time.Now().After(deadline) {
				if rep.Err == "" {
					rep.Err = fmt.Sprintf("mid-kill session %#x wedged in state %s", sid, resp.State)
				}
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Wave 3: the healed cluster must serve fresh sessions, victim included.
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < spec.Fresh; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := session.DialClient(cluster.ClientAddr(i%spec.N), spec.SetupTimeout)
			if err != nil {
				return
			}
			defer cl.Close()
			s := w.Spec(i)
			resp, err := cl.Submit(s, 0, true)
			if err != nil {
				return
			}
			got, err := resp.SimResult()
			if err != nil || w.Verify(s, got) != "" {
				return
			}
			mu.Lock()
			rep.FreshDecided++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if spec.Fresh > 0 && rep.FreshDecided < spec.Fresh && rep.Err == "" {
		rep.Err = fmt.Sprintf("only %d/%d fresh sessions decided after recovery", rep.FreshDecided, spec.Fresh)
	}
	return rep, nil
}

// waitHealthy polls every daemon's health check until the mesh heals.
func waitHealthy(c *session.Cluster, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		last = nil
		for i := 0; i < n; i++ {
			if err := c.Daemon(i).Health(); err != nil {
				last = fmt.Errorf("daemon %d: %w", i, err)
				break
			}
		}
		if last == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("chaos: mesh did not heal within %v: %w", timeout, last)
}
