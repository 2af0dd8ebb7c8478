package session

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// TestFlushPolicyTable pins the adaptive flusher's decisions as pure
// functions: when it coalesces, how the frames-per-flush average evolves,
// and what cuts a waiting batch short.
func TestFlushPolicyTable(t *testing.T) {
	coalesce := []struct {
		ewma      float64
		occupancy int
		want      bool
	}{
		{0, 32, false},    // cold link: flush immediately, batching buys nothing
		{1, 32, false},    // single-frame flushes: still latency-bound
		{22, 32, false},   // bursty but under target: waits would burn the interval
		{31.9, 32, false}, // just under the target
		{32, 32, true},    // waits tend to fill the batch: hold for fuller ones
		{600, 32, true},   // saturated link
		{4, 4, true},      // target scales with FlushOccupancy
	}
	for _, c := range coalesce {
		if got := shouldCoalesce(c.ewma, c.occupancy); got != c.want {
			t.Errorf("shouldCoalesce(%v, %d) = %v, want %v", c.ewma, c.occupancy, got, c.want)
		}
	}

	ewma := []struct {
		prev   float64
		frames int
		want   float64
	}{
		{0, 0, 0},  // empty flush carries no signal
		{5, 0, 5},  // ditto: average unchanged
		{5, -1, 5}, // defensive: nonsense counts ignored
		{0, 8, 8},  // first sample seeds the average
		{4, 8, 5},  // 0.75*4 + 0.25*8
		{8, 4, 7},  // decays toward quiet
		{2, 2, 2},  // steady state is a fixed point
	}
	for _, c := range ewma {
		if got := updateEWMA(c.prev, c.frames); got != c.want {
			t.Errorf("updateEWMA(%v, %d) = %v, want %v", c.prev, c.frames, got, c.want)
		}
	}

	ready := []struct {
		frames, bytes, occupancy, maxBytes int
		want                               bool
	}{
		{1, 100, 32, 1 << 16, false},       // one small frame: wait
		{31, 1000, 32, 1 << 16, false},     // just under the occupancy cut
		{32, 1000, 32, 1 << 16, true},      // occupancy threshold
		{5, 1 << 16, 32, 1 << 16, true},    // byte cap trumps occupancy
		{5, 1<<16 - 1, 32, 1 << 16, false}, // just under the byte cap
		{1, 0, 1, 1 << 16, true},           // occupancy 1 disables coalescing
	}
	for _, c := range ready {
		if got := batchReady(c.frames, c.bytes, c.occupancy, c.maxBytes); got != c.want {
			t.Errorf("batchReady(%d, %d, %d, %d) = %v, want %v",
				c.frames, c.bytes, c.occupancy, c.maxBytes, got, c.want)
		}
	}
}

// gateConn blocks every write after the first until the gate is released —
// the test lever for a peer whose socket stopped draining after the mesh
// handshake (the first write is the mux hello, which must pass for start to
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

// startTestMeshes brings up an n-node mux mesh without daemons on top: the
// handler records raw deliveries, and onDown failures flunk the test
// unless the mesh is already closing.
func startTestMeshes(t *testing.T, n int, opts Options,
	handler func(me, from sim.PartyID, body []byte)) []*mux {
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
	muxes := make([]*mux, n)
	// Set before the first mux closes: a peer hanging up at teardown reaches
	// the still-open muxes as a link failure.
	var closing atomic.Bool
	for i := range muxes {
		me := sim.PartyID(i)
		muxes[i] = newMux(me, n, addrs, 1, opts,
			func(from sim.PartyID, body []byte) error { handler(me, from, body); return nil },
			func(peer sim.PartyID, err error) {
				if !closing.Load() {
					t.Errorf("link %d-%d down: %v", me, peer, err)
				}
			},
			func(peer sim.PartyID) {})
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range muxes {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = muxes[i].start(listeners[i]) }(i)
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
			m.close()
		}
	})
	return muxes
}

// TestSlowPeerDoesNotStallOtherLinks pins per-link isolation: a peer whose
// socket stops draining backs its own outbox up, but frames to healthy
// peers keep flowing — each link has its own flusher and its own buffers,
// and enqueue never blocks on a stuck write.
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

	frame, err := sessionFrame(wire.SessionEOR{SID: 7, Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pile frames onto the gated link until its outbox is far beyond every
	// flush threshold, with the flusher wedged in a blocked write.
	for i := 0; i < 2000; i++ {
		muxes[0].enqueue(2, frame)
	}
	// The healthy link must still deliver promptly.
	const want = 50
	start := time.Now()
	for i := 0; i < want; i++ {
		muxes[0].enqueue(1, frame)
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

// TestBinaryFrameMatchesTransportFraming pins appendSessionFrame to the
// byte format transport.AppendFrame produces — the zero-allocation path
// must not drift from the generic one.
func TestBinaryFrameMatchesTransportFraming(t *testing.T) {
	payloads := []any{
		wire.SessionEOR{SID: 1<<48 | 9, Round: 3, Done: true},
		wire.SessionAbort{SID: 42, Reason: "x"},
		wire.SessionDecide{SID: 7, Party: 2, V: 5, DoneRound: 3, TermRound: 4, Msgs: 12, Bytes: 96},
	}
	for _, p := range payloads {
		got, err := appendSessionFrame(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		body, err := wire.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		want := transport.AppendFrame(nil, append([]byte{transport.FrameMuxSession}, body...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("appendSessionFrame(%T) = %x, want %x", p, got, want)
		}
	}
}
