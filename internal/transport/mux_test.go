package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// TestFlushPolicyTable pins, as a pure function, what hands an outbox to
// the flusher before its stager has run dry.
func TestFlushPolicyTable(t *testing.T) {
	ready := []struct {
		frames, bytes, occupancy, maxBytes int
		want                               bool
	}{
		{1, 100, 32, 1 << 16, false},       // one small frame: its stager's to write
		{31, 1000, 32, 1 << 16, false},     // just under the occupancy cut
		{32, 1000, 32, 1 << 16, true},      // occupancy threshold
		{5, 1 << 16, 32, 1 << 16, true},    // byte cap trumps occupancy
		{5, 1<<16 - 1, 32, 1 << 16, false}, // just under the byte cap
		{1, 0, 1, 1 << 16, true},           // occupancy 1: every frame is the flusher's
	}
	for _, c := range ready {
		if got := batchReady(c.frames, c.bytes, c.occupancy, c.maxBytes); got != c.want {
			t.Errorf("batchReady(%d, %d, %d, %d) = %v, want %v",
				c.frames, c.bytes, c.occupancy, c.maxBytes, got, c.want)
		}
	}
}

// startTestMeshes brings up an n-party mux mesh with nothing on top: cfg
// supplies the redial and the link-failure hook, and the handler records
// raw deliveries.
func startTestMeshes(t *testing.T, n int, cfg MuxConfig,
	handler func(me, from sim.PartyID, body []byte)) []*Mux {
	t.Helper()
	listeners, addrs, err := bindLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SetupTimeout, cfg.RoundTimeout = 10*time.Second, 10*time.Second
	cfg.Dialer, cfg.Addrs, cfg.Hash = DialRetry, addrs, 1
	muxes := make([]*Mux, n)
	for i := range muxes {
		me, c := sim.PartyID(i), cfg
		c.ID = me
		c.Handler = func(from sim.PartyID, _ int, body []byte) error { handler(me, from, body); return nil }
		muxes[i] = NewMux(c)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, m := range muxes {
		host := NewAcceptHost(listeners[i], m.Accept)
		t.Cleanup(host.Close)
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = muxes[i].Start() }(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mux %d start: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, m := range muxes {
			m.Close()
		}
	})
	return muxes
}

// state reads a link's generation and whether it is up.
func (l *peerLink) state() (gen int, up bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen, l.up
}

func (m *Mux) openConns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.conns)
}

// awaitTrue polls ok until it holds, failing the test after 10 seconds.
func awaitTrue(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// forceReplacement closes the dialing side's connection of the link from
// low to high and waits until both ends run a newer generation.
func forceReplacement(t *testing.T, dialed, accepted *peerLink) {
	t.Helper()
	was, _ := accepted.state()
	dialed.mu.Lock()
	conn := dialed.conn
	dialed.mu.Unlock()
	conn.Close() // the dialing side's reader fails and redials
	awaitTrue(t, "the link's replacement", func() bool {
		g, up := accepted.state()
		_, upLow := dialed.state()
		return g > was && up && upLow
	})
}

// TestMuxTracksOnlyLiveConns: the set of connections a mux holds for its
// shutdown is the handshakes in flight and one connection per link — a port
// probe, a hello that fails validation and every dead generation of a
// flapping link leave it where they are closed.
func TestMuxTracksOnlyLiveConns(t *testing.T) {
	const n = 3
	var delivered atomic.Int64
	muxes := startTestMeshes(t, n, MuxConfig{Redial: true, OnDown: func(sim.PartyID, error) {}},
		func(me, from sim.PartyID, body []byte) {
			if me == n-1 && from == 0 {
				delivered.Add(1)
			}
		})
	low, high := muxes[0], muxes[n-1]

	for i := 0; i < 500; i++ {
		conn, err := net.Dial("tcp", high.cfg.Addrs[n-1])
		if err != nil {
			t.Fatal(err)
		}
		garbage := []byte("GET / HTTP/1.1\r\n\r\n") // a length the stream never honours
		if i%2 == 1 {
			garbage = AppendFrame(nil, []byte{FrameMuxHello, 'T', 'A', 'A', 'S'}) // a frame, not a hello
		}
		conn.Write(garbage)
		conn.Close()
	}
	for i := 0; i < 20; i++ {
		forceReplacement(t, low.peers[n-1], high.peers[0])
	}

	for _, m := range []*Mux{low, high} {
		awaitTrue(t, "the rejected and replaced connections to leave the set", func() bool { return m.openConns() <= n-1 })
	}
	low.Enqueue(n-1, muxFrame(t, wire.SessionRound{SID: 1, Round: 1}))
	awaitTrue(t, "a frame over the replaced link", func() bool { return delivered.Load() == 1 })
}

// TestRedialSurvivesFailureInOnUp: a redialed link that fails while its
// OnUp still runs is redialed again. The failure lands before the redial
// loop has returned, so the loop's own bookkeeping must already say that
// no redial is running, or the link stays down for good.
func TestRedialSurvivesFailureInOnUp(t *testing.T) {
	var low atomic.Pointer[Mux]
	muxes := startTestMeshes(t, 2, MuxConfig{
		Redial: true,
		OnDown: func(sim.PartyID, error) {},
		OnUp: func(peer sim.PartyID, gen int) {
			if peer != 1 || gen != 2 {
				return // only the dialing side's first redial fails
			}
			l := low.Load().peers[1]
			l.mu.Lock()
			conn := l.conn
			l.mu.Unlock()
			conn.Close()
			awaitTrue(t, "the redialed generation to fail", func() bool { _, up := l.state(); return !up })
		},
	}, func(sim.PartyID, sim.PartyID, []byte) {})
	low.Store(muxes[0])
	l := muxes[0].peers[1]
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	conn.Close()
	awaitTrue(t, "a third generation of the link", func() bool { g, up := l.state(); return g >= 3 && up })
}
