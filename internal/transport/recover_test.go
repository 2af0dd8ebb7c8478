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
	"treeaa/internal/wire"
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
// that the redial + count exchange + resend path restores it transparently:
// the Result stays byte-identical to the sequential engine's, and the chaos
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

	// Kill the 1–2 link's first connection at party 1's 7th write (past the
	// hello and the count, inside the round traffic). Replacements are passed
	// through untouched, so the link dies exactly once.
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

// TestClusterOneConnectionPerPair: a mesh of n parties opens one duplex
// connection per pair — the lower id dials — so every Dialer call is one
// connection, n(n−1)/2 of them, where simplex links took n(n−1).
func TestClusterOneConnectionPerPair(t *testing.T) {
	tr := tree.NewPath(16)
	const n, tc = 16, 5
	var dials atomic.Int64
	cfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2}
	_, err := LocalCluster(cfg, buildMachines(t, tr, n, tc, spreadInputs(tr, n, 1)), Options{
		Dialer: func(addr string, deadline time.Time) (net.Conn, error) {
			dials.Add(1)
			return DialRetry(addr, deadline)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != n*(n-1)/2 {
		t.Errorf("%d connections for n = %d, want %d", got, n, n*(n-1)/2)
	}
}

// startEndpoints runs the link setup of an n-party mesh of single-party
// endpoints, each behind an AcceptHost, without a protocol on top.
func startEndpoints(t *testing.T, n int, opts Options) []*endpoint {
	t.Helper()
	listeners, addrs, err := bindLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	session := NewSession()
	eps := make([]*endpoint, n)
	for i := range eps {
		eps[i] = newEndpoint([]sim.PartyID{sim.PartyID(i)}, n, addrs, session, opts)
		host := NewAcceptHost(listeners[i], eps[i].links[sim.PartyID(i)].Accept)
		t.Cleanup(func() { host.Close(); eps[i].shutdown(false) })
	}
	errs := make(chan error, n)
	for _, e := range eps {
		go func(e *endpoint) { errs <- e.start() }(e)
	}
	for range eps {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return eps
}

// TestMeshTracksOnlyLiveConns is TestMuxTracksOnlyLiveConns on the mesh,
// under a reconnect drill: every forced drop is repaired by the lower id's
// redial and a count exchange, and afterwards each endpoint still holds one
// connection per link — not one per connection it ever dialed or accepted.
func TestMeshTracksOnlyLiveConns(t *testing.T) {
	const n, drops = 3, 20
	eps := startEndpoints(t, n, Options{Reconnect: true})
	for i := 0; i < drops; i++ {
		forceReplacement(t, eps[0].links[0].peers[n-1], eps[n-1].links[n-1].peers[0])
	}
	for i, e := range eps {
		m := e.links[sim.PartyID(i)]
		awaitTrue(t, "the replaced connections to leave the set", func() bool { return m.openConns() <= n-1 })
	}
	p := eps[0].pipes[0][n-1]
	awaitTrue(t, "the last generation's count", func() bool {
		p.smu.Lock()
		defer p.smu.Unlock()
		g, _ := eps[0].links[0].peers[n-1].state()
		return p.open && p.gen == g
	})
}

// TestLinkGenerationFence: a data frame read off a replaced connection never
// reaches the node once a frame of the replacement has: it is dropped
// uncounted, so the count the replacement opened with makes the peer resend
// it, in order.
func TestLinkGenerationFence(t *testing.T) {
	e := newEndpoint([]sim.PartyID{0}, 2, []string{"!", "!"}, 1, Options{Reconnect: true})
	data := func(round int) []byte {
		return muxFrame(t, wire.SessionRound{Round: round})[1:]
	}
	for _, step := range []struct {
		gen  int
		body []byte
	}{
		{1, data(1)},
		{2, readOne(t, encodeCount(0))}, // the replacement's first frame
		{1, data(2)},                    // the replaced reader, late
		{2, data(2)},
	} {
		if err := e.receive(0, 1, step.gen, step.body); err != nil {
			t.Fatal(err)
		}
	}
	var rounds []int
	for len(e.events) > 0 {
		ev := <-e.events
		r, _, _ := FrameInfo(AppendFrame(nil, ev.body))
		rounds = append(rounds, r)
	}
	if !reflect.DeepEqual(rounds, []int{1, 2}) || e.pipes[0][1].rcvd != 2 {
		t.Errorf("the node got rounds %v (%d counted), want [1 2] with 2 counted", rounds, e.pipes[0][1].rcvd)
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
