package transport

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treeaa/internal/async"
	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// announceConn intercepts the writes of one end of a link that carry round
// frames: act decides what the end does instead of writing, told whether
// the write holds the end's decision announcement.
type announceConn struct {
	net.Conn
	act func(c net.Conn, b []byte, announce bool) (int, error)
}

func (c *announceConn) Write(b []byte) (int, error) {
	rounds, announce := false, false
	for rest := b; len(rest) > 0; {
		_, control, size := FrameInfo(rest)
		if size == 0 {
			break
		}
		if _, body, _ := wire.ConsumeUvarint(rest); body[0] == FrameMuxSession {
			rounds, announce = true, announce || control
		}
		rest = rest[size:]
	}
	if !rounds {
		return c.Conn.Write(b)
	}
	return c.act(c.Conn, b, announce)
}

// TestAsyncWriteFailureBeforeDoneIsNotFatal pins what a link failure means to
// an event-driven seat, now that both directions of a pair share one
// socket: the failure reaches the seat behind every frame the peer sent,
// even when a write of ours failed first. A peer that announced its decision
// and hung up is done; a peer that dies undecided fails the seat with the
// error its reader met.
// The seats run side by side rather than in a cluster, whose first failure
// would tear the other seat down before it could judge.
func TestAsyncWriteFailureBeforeDoneIsNotFatal(t *testing.T) {
	const n = 2
	tr := tree.NewPath(8)
	inputs := []tree.VertexID{0, 7}
	run := func(wrap func(from, to sim.PartyID, conn net.Conn) net.Conn) []error {
		t.Helper()
		listeners, addrs, err := bindLoopback(n)
		if err != nil {
			t.Fatal(err)
		}
		session, errs, done := NewSession(), make([]error, n), make(chan int, n)
		opts := Options{SetupTimeout: 10 * time.Second, RoundTimeout: 10 * time.Second, WrapConn: wrap}
		for i := 0; i < n; i++ {
			p, err := async.NewPipeline(tr, n, 0, async.PartyID(i), inputs[i])
			if err != nil {
				t.Fatal(err)
			}
			seat := seated{Seat: Seat{ID: sim.PartyID(i), Addrs: addrs, Session: session, Config: sim.Config{N: n}, Event: p}}
			run, stop, _ := seat.start(func(sim.PartyID) (net.Listener, error) { return listeners[i], nil }, opts)
			defer stop()
			go func(i int) { _, errs[i] = run(); done <- i }(i)
		}
		for range errs {
			<-done
		}
		return errs
	}

	// Party 0's announcement reaches party 1, but the write reports failure —
	// what a reset racing the last bytes does — while party 1's announcement
	// is still 50ms away; party 1 then finishes and hangs up.
	errs := run(func(from, to sim.PartyID, conn net.Conn) net.Conn {
		return &announceConn{conn, func(c net.Conn, b []byte, announce bool) (int, error) {
			switch {
			case !announce:
			case from == 0:
				c.Write(b)
				return 0, net.ErrClosed
			default:
				time.Sleep(50 * time.Millisecond)
			}
			return c.Write(b)
		}}
	})
	for p, err := range errs {
		if err != nil {
			t.Errorf("announced-and-hung-up: party %d failed: %v", p, err)
		}
	}

	// Party 1 dies at its first protocol frame, undecided.
	errs = run(func(from, to sim.PartyID, conn net.Conn) net.Conn {
		if from != 1 {
			return conn
		}
		return &announceConn{conn, func(c net.Conn, b []byte, announce bool) (int, error) {
			c.Close()
			return 0, net.ErrClosed
		}}
	})
	if err := errs[0]; err == nil || !strings.Contains(err.Error(), "link 1→0") {
		t.Errorf("a peer that died undecided: party 0 ended with %v, want its read-side failure on link 1→0", err)
	}
}

// TestDiscardKeepsCountExact: frames staged for a peer that announced, held
// up behind a write and dropped before any write took them, leave the
// numbering too. Party 0 has
// written frames 1–5 to party 2, discards four more, and its announcement
// goes out as frame 6; when the link is replaced, party 2's count of 6 is
// everything — nothing is resent, the announcement least of all, which
// party 2 would refuse as a duplicate.
func TestDiscardKeepsCountExact(t *testing.T) {
	e := newEndpoint([]sim.PartyID{0}, 3, []string{"!", "!", "!"}, 1, Options{Reconnect: true})
	l, p := e.links[0].peers[2], e.pipes[0][2]
	up := func() int { // what register does, minus the socket
		l.mu.Lock()
		l.gen, l.up, l.pending, l.frames = l.gen+1, true, nil, 0
		gen := l.gen
		l.mu.Unlock()
		e.receive(0, 2, gen, nil)
		return gen
	}
	written := func() (tags []string) { // what the next write would take
		l.mu.Lock()
		batch, _ := l.takeLocked()
		l.mu.Unlock()
		for len(batch) > 0 {
			round, control, size := FrameInfo(batch)
			_, body, _ := wire.ConsumeUvarint(batch)
			tags = append(tags, fmt.Sprintf("%#x/r%d/%v", body[0], round, control))
			batch = batch[size:]
		}
		return tags
	}
	data := func(round int) []byte { return muxFrame(t, wire.SessionRound{Round: round}) }

	gen := up()
	if err := e.receive(0, 2, gen, readOne(t, encodeCount(0))); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 5; r++ {
		e.send(0, 2, data(r))
	}
	written()
	for r := 6; r <= 9; r++ {
		e.send(0, 2, data(r))
	}
	l.wmu.Lock() // a write in progress holds them up: a backlog
	e.discard(0, 2)
	l.wmu.Unlock()
	e.send(0, 2, muxFrame(t, wire.SessionRound{Round: 9, Done: true}))
	if got := written(); !reflect.DeepEqual(got, []string{"0x6/r9/true"}) {
		t.Fatalf("after the discard the link wrote %v, want the announcement alone", got)
	}

	gen = up()
	if err := e.receive(0, 2, gen, readOne(t, encodeCount(6))); err != nil {
		t.Fatal(err)
	}
	if got := written(); !reflect.DeepEqual(got, []string{"0x5/r0/true"}) {
		t.Errorf("the replacement wrote %v after a count of 6, want our own count alone", got)
	}
	if p.sent != 6 || len(p.kept) != 6 {
		t.Errorf("pipe numbered %d frames and keeps %d, want 6 and 6", p.sent, len(p.kept))
	}
}

// TestAsyncDropAfterDiscard: party 0's writes to party 2 lag, so what it
// stages for party 2 piles up and is discarded when party 2 announces; the
// connection then drops right behind party 0's own announcement, while
// party 2 still waits for party 3's. The replacement's count exchange
// resends only what party 2 lacks — not the announcement it holds, which it
// would refuse as a duplicate — and the run decides.
func TestAsyncDropAfterDiscard(t *testing.T) {
	const n = 4
	tr := tree.NewPath(16)
	var stats metrics.ChaosStats
	var wrapped atomic.Bool
	machines := make([]driver.EventMachine, n)
	for i := range machines {
		p, err := async.NewPipeline(tr, n, 1, async.PartyID(i), tree.VertexID(i*5))
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = p
	}
	res, err := AsyncLocalCluster(n, machines, Options{
		SetupTimeout: 10 * time.Second, RoundTimeout: 10 * time.Second, Reconnect: true, Chaos: &stats,
		WrapConn: func(from, to sim.PartyID, conn net.Conn) net.Conn {
			switch {
			case from == 3 && to == 2:
				return &announceConn{conn, func(c net.Conn, b []byte, announce bool) (int, error) {
					if announce {
						time.Sleep(300 * time.Millisecond)
					}
					return c.Write(b)
				}}
			case from == 0 && to == 2 && wrapped.CompareAndSwap(false, true):
				return &announceConn{conn, func(c net.Conn, b []byte, announce bool) (int, error) {
					time.Sleep(20 * time.Millisecond)
					n, err := c.Write(b)
					if announce {
						c.Close()
					}
					return n, err
				}}
			}
			return conn
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != n || stats.Reconnects.Load() < 1 {
		t.Errorf("%d outputs, %d reconnects; want %d and ≥ 1", len(res.Outputs), stats.Reconnects.Load(), n)
	}
}
