package session

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treeaa/internal/gradecast"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// startTestMeshes brings up an n-daemon link mesh without daemons on top:
// the handler records raw session bodies, and link failures flunk the test
// unless the mesh is already closing.
func startTestMeshes(t *testing.T, n int, opts Options,
	handler func(me, from sim.PartyID, body []byte)) []*transport.Mux {
	t.Helper()
	opts = opts.withDefaults()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	muxes := make([]*transport.Mux, n)
	// Set before the first mux closes: a peer hanging up at teardown reaches
	// the still-open muxes as a link failure.
	var closing atomic.Bool
	for i := range muxes {
		me := sim.PartyID(i)
		muxes[i] = transport.NewMux(transport.MuxConfig{
			ID: me, Addrs: addrs, Hash: 1,
			SetupTimeout: opts.SetupTimeout, RoundTimeout: opts.RoundTimeout,
			Dialer: opts.Dialer, WrapConn: opts.WrapConn, Stats: opts.Stats,
			Handler: func(from sim.PartyID, _ int, body []byte) error { handler(me, from, body[1:]); return nil },
			OnDown: func(peer sim.PartyID, err error) {
				if !closing.Load() {
					t.Errorf("link %d-%d down: %v", me, peer, err)
				}
			},
		})
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, m := range muxes {
		host := transport.NewAcceptHost(listeners[i], m.Accept)
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
		closing.Store(true)
		for _, m := range muxes {
			m.Close()
		}
	})
	return muxes
}

// gateConn blocks every write after the first until the gate is released —
// the test lever for a peer whose socket stopped draining after the mesh
// handshake (the first write is the mux hello, which must pass for Start to
// complete).
type gateConn struct {
	net.Conn
	gate   <-chan struct{}
	writes *atomic.Int64
}

func (c gateConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		<-c.gate
	}
	return c.Conn.Write(b)
}

// TestSlowPeerDoesNotStallOtherLinks pins per-link isolation: a peer whose
// socket stops draining backs its own outbox up, but frames to healthy
// peers keep flowing — each link has its own flusher and its own buffers,
// and Enqueue never blocks on a stuck write.
func TestSlowPeerDoesNotStallOtherLinks(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()

	var healthy atomic.Int64
	var gateWrites atomic.Int64
	opts := Options{
		RoundTimeout: 2 * time.Second, // bounds the stalled write at teardown
		WrapConn: func(from, to sim.PartyID, conn net.Conn) net.Conn {
			if from == 0 && to == 2 {
				return gateConn{Conn: conn, gate: gate, writes: &gateWrites}
			}
			return conn
		},
	}
	muxes := startTestMeshes(t, 3, opts, func(me, from sim.PartyID, body []byte) {
		if me == 1 && from == 0 {
			healthy.Add(1)
		}
	})

	frame, err := sessionFrame(wire.SessionRound{SID: 7, Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pile frames onto the gated link until its outbox is far beyond every
	// flush threshold, with the flusher wedged in a blocked write.
	for i := 0; i < 2000; i++ {
		muxes[0].Enqueue(2, frame)
	}
	// The healthy link must still deliver promptly.
	const want = 50
	start := time.Now()
	for i := 0; i < want; i++ {
		muxes[0].Enqueue(1, frame)
	}
	deadline := time.Now().Add(5 * time.Second)
	for healthy.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := healthy.Load(); got < want {
		t.Fatalf("healthy link delivered %d/%d frames while peer 2 was stalled", got, want)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("healthy link took %v to deliver %d frames", elapsed, want)
	}
	release() // un-wedge the gated flusher so close() can drain it
}

// watchedConn is a real TCP connection with small kernel buffers, so a peer
// that stops reading stalls its link after kilobytes, and with its blocking
// writes watched. It keeps the descriptor the try-write needs (the embedded
// *net.TCPConn's), and the try-write goes to that descriptor directly: a
// Write in progress past the handshake is the link's flusher, blocked.
type watchedConn struct {
	*net.TCPConn
	writing atomic.Int32
}

func (c *watchedConn) Write(b []byte) (int, error) {
	c.writing.Add(1)
	defer c.writing.Add(-1)
	return c.TCPConn.Write(b)
}

func watchSmallSockets(watched map[[2]sim.PartyID]*watchedConn) func(from, to sim.PartyID, conn net.Conn) net.Conn {
	var mu sync.Mutex
	return func(from, to sim.PartyID, conn net.Conn) net.Conn {
		tc := conn.(*net.TCPConn)
		tc.SetWriteBuffer(16 << 10)
		tc.SetReadBuffer(16 << 10)
		w := &watchedConn{TCPConn: tc}
		mu.Lock()
		watched[[2]sim.PartyID{from, to}] = w
		mu.Unlock()
		return w
	}
}

// within runs f and fails the test if it has not returned in d: the shape
// of "this must never block on a socket".
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// flusherParked waits for a write to be in progress on the connection: once
// the try-writers are done, that is the flusher inside a write — which,
// toward a peer that is not reading, it cannot leave.
func flusherParked(c *watchedConn) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if c.writing.Load() > 0 {
			return true
		}
	}
	return false
}

// TestTryWriteNeverBlocks: a real TCP link whose far reader has stopped
// reading. Staging far past what the socket holds and flushing as a drainer
// would must return at once every time — what the socket will not take
// becomes the flusher's tail — and once the reader resumes, the byte stream
// is exactly the staging order: inline writes, the carried tail and the
// flusher's batches never overtake one another.
func TestTryWriteNeverBlocks(t *testing.T) {
	const frames = 400
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	var got []uint64 // written by mux 1's one reader goroutine
	arrived := make(chan struct{})
	stats := &metrics.ServeStats{}
	watched := make(map[[2]sim.PartyID]*watchedConn)
	opts := Options{
		RoundTimeout: 30 * time.Second, // the flusher's blocked write outlasts the stall
		Stats:        stats,
		WrapConn:     watchSmallSockets(watched),
	}
	muxes := startTestMeshes(t, 2, opts, func(me, from sim.PartyID, body []byte) {
		if me != 1 {
			return
		}
		<-gate
		_, sid, err := wire.PeekSession(body)
		if err != nil {
			t.Errorf("frame %d: %v", len(got), err)
		}
		if got = append(got, sid); len(got) == frames {
			close(arrived)
		}
	})

	reason := strings.Repeat("x", 512)
	within(t, 10*time.Second, "staging and flushing toward a reader that does not read", func() {
		for i := 0; i < frames; i++ {
			frame, err := sessionFrame(wire.SessionAbort{SID: uint64(i), Reason: reason})
			if err != nil {
				t.Error(err)
				return
			}
			muxes[0].Stage(1, frame)
			if i%4 == 3 {
				muxes[0].FlushDry()
			}
		}
	})
	// 200 KB were offered to a link that holds a third of it: the rest is
	// with a flusher that sits in its write.
	if parked := flusherParked(watched[[2]sim.PartyID{0, 1}]); !parked || stats.BatchesInline.Load() == 0 {
		t.Fatalf("link never backed up: flusher parked %v after %d inline writes", parked, stats.BatchesInline.Load())
	}

	release()
	select {
	case <-arrived:
	case <-time.After(20 * time.Second):
		t.Fatalf("%d of %d frames arrived after the reader resumed", len(got), frames)
	}
	for i, sid := range got {
		if sid != uint64(i) {
			t.Fatalf("frame %d of the stream is the %d-th staged", i, sid)
		}
	}
	// The flusher counts a write when it returns, a moment after the reader
	// saw its last byte.
	var in, def, all int64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		in, def, all = stats.BatchesInline.Load(), stats.BatchesDeferred.Load(), stats.Batches.Load()
		if def > 0 && in+def == all {
			return
		}
	}
	t.Errorf("%d inline + %d deferred writes, %d counted in all; want a deferred one (who took the tail?) and the sum", in, def, all)
}

// TestSlowPeerDoesNotStallEngineTurns is TestSlowPeerDoesNotStallOtherLinks
// with the traffic coming from where it comes from in service: Submit steps
// each new session's first round on the calling goroutine and writes what it
// staged. With peer 2 not reading, every Submit must still return at once,
// and peer 1 must still receive each session's open and first round.
func TestSlowPeerDoesNotStallEngineTurns(t *testing.T) {
	const sessions = 1500
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()

	watched := make(map[[2]sim.PartyID]*watchedConn)
	opts := Options{
		RoundTimeout: 30 * time.Second,
		MaxSessions:  sessions,
		WrapConn:     watchSmallSockets(watched),
	}.withDefaults()
	d := &Daemon{id: 0, n: 3, opts: opts}
	d.mgr = newManager(d)
	t.Cleanup(d.mgr.stop)

	var healthy atomic.Int64
	muxes := startTestMeshes(t, 3, opts, func(me, from sim.PartyID, body []byte) {
		switch {
		case me == 0:
			d.mgr.handleRaw(from, body)
		case me == 1 && from == 0:
			healthy.Add(1)
		case me == 2:
			<-gate // accepted the mesh, then stopped reading
		}
	})
	d.mux = muxes[0]

	start := time.Now()
	within(t, 10*time.Second, "Submit beside a peer that does not read", func() {
		for i := 0; i < sessions; i++ {
			if _, err := d.mgr.Submit(Spec{Tree: "spider:3:3", TTL: time.Minute}, 0); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	})
	if !flusherParked(watched[[2]sim.PartyID{0, 2}]) {
		t.Fatalf("the link to peer 2 never backed up (%d sessions' frames fit its socket)", sessions)
	}
	deadline := time.Now().Add(5 * time.Second)
	for healthy.Load() < 2*sessions && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := healthy.Load(); got != 2*sessions {
		t.Fatalf("peer 1 received %d frames while peer 2 was stalled, want an open and a round for each of %d sessions", got, sessions)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("peer 1 was served in %v", elapsed)
	}
	release()
}

// TestBinaryFrameMatchesTransportFraming pins sessionFrame to the
// byte format transport.AppendFrame produces over the encoded body.
func TestBinaryFrameMatchesTransportFraming(t *testing.T) {
	payloads := []any{
		wire.SessionRound{SID: 1<<48 | 9, Round: 3, Done: true},
		wire.SessionRound{SID: 7, Round: 300, Payloads: []any{
			&gradecast.SendMsg{Tag: "treeaa/pf", Iter: 3, Val: 17.5},
			&gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3, Vals: gradecast.Vec{{ID: 0, Val: 1}, {ID: 2, Val: -2}}},
		}},
		wire.SessionAbort{SID: 42, Reason: "x"},
		wire.SessionDecide{SID: 7, Party: 2, V: 5, DoneRound: 3, TermRound: 4, Msgs: 12, Bytes: 96},
	}
	for _, p := range payloads {
		got, err := sessionFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		body, err := wire.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		want := transport.AppendFrame(nil, append([]byte{transport.FrameMuxSession}, body...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sessionFrame(%T) = %x, want %x", p, got, want)
		}
	}
}
