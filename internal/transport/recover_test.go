package transport

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treeaa/internal/core"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// killConn cuts a connection after a fixed number of writes, emulating a
// mid-stream connection drop: the nth write is discarded and the socket
// closed, so the frame is lost and must be retransmitted after reconnect.
type killConn struct {
	net.Conn
	remaining *atomic.Int64
}

func (k killConn) Write(b []byte) (int, error) {
	if k.remaining != nil && k.remaining.Add(-1) == 0 {
		k.Conn.Close()
	}
	return k.Conn.Write(b)
}

// TestClusterReconnectResend drops one link's connection mid-run and checks
// that the reconnect + resume + replay path restores it transparently: the
// Result stays byte-identical to the sequential engine's, and the chaos
// counters show the repair actually happened.
func TestClusterReconnectResend(t *testing.T) {
	tr := tree.NewPath(20)
	const n, tc = 5, 1
	inputs := spreadInputs(tr, n, 3)

	simCfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2,
		Adversary: splitVote(tr, n, tc)}
	want, err := sim.Run(simCfg, buildMachines(t, tr, n, tc, inputs))
	if err != nil {
		t.Fatal(err)
	}

	// Kill the 1→2 link's first connection after its 7th write (past the
	// hello, inside the round traffic). Reconnect dials are passed through
	// untouched, so the link dies exactly once.
	var stats metrics.ChaosStats
	var killed atomic.Bool
	var remaining atomic.Int64
	remaining.Store(7)
	tcpCfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2,
		Adversary: splitVote(tr, n, tc)}
	got, err := LocalCluster(tcpCfg, buildMachines(t, tr, n, tc, inputs), Options{
		Reconnect: true,
		Chaos:     &stats,
		WrapConn: func(from, to sim.PartyID, conn net.Conn) net.Conn {
			if from == 1 && to == 2 && killed.CompareAndSwap(false, true) {
				return killConn{Conn: conn, remaining: &remaining}
			}
			return conn
		},
	})
	if err != nil {
		t.Fatalf("LocalCluster with dropped link: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results diverge after reconnect\n tcp: %+v\n sim: %+v", got, want)
	}
	if stats.Reconnects.Load() < 1 {
		t.Errorf("Reconnects = %d, want ≥ 1", stats.Reconnects.Load())
	}
	if stats.FramesResent.Load() < 1 {
		t.Errorf("FramesResent = %d, want ≥ 1 (the killed write was lost)", stats.FramesResent.Load())
	}
}

// TestClusterCrashRestart kills an honest party in its round-2 send loop —
// the round's frame goes to the lower half of its peers and to nobody else —
// and checks the full recovery story: the supervisor restarts it with a
// fresh machine, the party rebuilds its inboxes from its peers' replayed
// history, re-steps deterministically, suppresses what the served peers
// already hold, and the merged Result — outputs, rounds, counts, trace — is
// byte-identical to an execution that never crashed. The unserved half
// receives round 2 exactly once, from the second incarnation: a duplicate
// would fail the driver's one-mark-per-round check, a hole the oracle
// comparison.
func TestClusterCrashRestart(t *testing.T) {
	tr := tree.NewPath(20)
	const n, tc = 5, 1
	inputs := spreadInputs(tr, n, 2)
	mkCfg := func(trace *sim.Trace) sim.Config {
		return sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2,
			Adversary: splitVote(tr, n, tc), Trace: trace}
	}

	var simTrace sim.Trace
	want, err := sim.Run(mkCfg(&simTrace), buildMachines(t, tr, n, tc, inputs))
	if err != nil {
		t.Fatal(err)
	}

	var stats metrics.ChaosStats
	var tcpTrace sim.Trace
	var mu sync.Mutex
	dials := make(map[sim.PartyID]int) // connections party 3 has opened, per peer
	var served []sim.PartyID           // peers its first incarnation wrote round 2's frame to
	got, err := LocalCluster(mkCfg(&tcpTrace), buildMachines(t, tr, n, tc, inputs), Options{
		Chaos:     &stats,
		CrashPlan: map[sim.PartyID]int{3: 2},
		Restart: func(p sim.PartyID) (sim.Machine, error) {
			return core.NewMachine(core.Config{Tree: tr, N: n, T: tc, ID: p, Input: inputs[p]})
		},
		WrapConn: func(from, to sim.PartyID, conn net.Conn) net.Conn {
			if from != 3 {
				return conn
			}
			mu.Lock()
			first := dials[to] == 0
			dials[to]++
			mu.Unlock()
			return &frameTap{conn, func(tag byte, round int) {
				if first && tag == FrameMuxSession && round == 2 {
					mu.Lock()
					served = append(served, to)
					mu.Unlock()
				}
			}}
		},
	})
	if err != nil {
		t.Fatalf("LocalCluster with crash plan: %v", err)
	}
	for _, p := range served { // party 3's peers are 0 1 | 2 4
		if p >= 2 {
			t.Errorf("the crashed incarnation wrote its round-2 frame to party %d, past the lower half of its peers", p)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results diverge after crash-restart\n tcp: %+v\n sim: %+v", got, want)
	}
	if !reflect.DeepEqual(tcpTrace, simTrace) {
		t.Errorf("traces diverge after crash-restart\n tcp: %+v\n sim: %+v", tcpTrace, simTrace)
	}
	if c := stats.Crashes.Load(); c != 1 {
		t.Errorf("Crashes = %d, want 1", c)
	}
	if stats.Reconnects.Load() < 1 {
		t.Errorf("Reconnects = %d, want ≥ 1 (peers must redial the restarted party)", stats.Reconnects.Load())
	}
	if stats.FramesResent.Load() < 1 {
		t.Errorf("FramesResent = %d, want ≥ 1 (history replay to the fresh receiver)", stats.FramesResent.Load())
	}
	if stats.FramesSkip.Load() < 1 {
		t.Errorf("FramesSkip = %d, want ≥ 1 (regenerated frames the peers already hold)", stats.FramesSkip.Load())
	}
}

// TestClusterCrashPlanValidation: malformed crash plans fail fast.
func TestClusterCrashPlanValidation(t *testing.T) {
	tr := tree.NewPath(8)
	const n, tc = 4, 1
	inputs := spreadInputs(tr, n, 1)
	restart := func(p sim.PartyID) (sim.Machine, error) {
		return core.NewMachine(core.Config{Tree: tr, N: n, T: tc, ID: p, Input: inputs[p]})
	}
	base := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2,
		Adversary: splitVote(tr, n, tc)}

	// splitVote corrupts the last tc parties, so party 3 is the corrupted one.
	cases := map[string]Options{
		"corrupted party": {CrashPlan: map[sim.PartyID]int{3: 2}, Restart: restart},
		"out of range":    {CrashPlan: map[sim.PartyID]int{9: 2}, Restart: restart},
		"round zero":      {CrashPlan: map[sim.PartyID]int{1: 0}, Restart: restart},
		"no restart":      {CrashPlan: map[sim.PartyID]int{1: 2}},
	}
	for name, opts := range cases {
		if _, err := LocalCluster(base, buildMachines(t, tr, n, tc, inputs), opts); err == nil {
			t.Errorf("%s: LocalCluster accepted the plan", name)
		}
	}
}

// TestDialRetrySucceedsLate: the dialer backs off and retries until the
// listener appears, as long as the deadline allows.
func TestDialRetrySucceedsLate(t *testing.T) {
	// Reserve an address, release it, and re-listen on it shortly after the
	// first dial attempts have failed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var mu sync.Mutex
	var late net.Listener
	go func() {
		time.Sleep(30 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial error below reports it
		}
		mu.Lock()
		late = l
		mu.Unlock()
	}()
	defer func() {
		mu.Lock()
		if late != nil {
			late.Close()
		}
		mu.Unlock()
	}()

	conn, err := DialRetry(addr, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatalf("DialRetry never reached the late listener: %v", err)
	}
	conn.Close()
}

// TestDialRetryDeadline: with nobody listening, the dialer gives up once
// the deadline passes rather than spinning forever.
func TestDialRetryDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	if _, err := DialRetry(addr, time.Now().Add(80*time.Millisecond)); err == nil {
		t.Fatal("DialRetry succeeded against a closed port")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("DialRetry took %v to give up on an 80ms deadline", waited)
	}
}

// TestDialRetryExpiredDeadline: an already-expired deadline fails without
// dialing at all.
func TestDialRetryExpiredDeadline(t *testing.T) {
	if _, err := DialRetry("127.0.0.1:1", time.Now().Add(-time.Second)); err == nil {
		t.Fatal("DialRetry accepted an expired deadline")
	}
}
