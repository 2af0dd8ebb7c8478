package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"treeaa/internal/async"
	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// doneConn intercepts the one write that carries the decision announcement.
type doneConn struct {
	net.Conn
	onDone func(write func() (int, error)) (int, error)
}

func (c doneConn) Write(b []byte) (int, error) {
	write := func() (int, error) { return c.Conn.Write(b) }
	_, rest, _ := wire.ConsumeUvarint(b)
	if _, control, _ := FrameInfo(b); control && rest[0] == FrameMuxSession {
		return c.onDone(write)
	}
	return write()
}

// TestAsyncWriteFailureBeforeDoneIsNotFatal pins the teardown race: a write
// on 0→1 fails while party 1's done frame is still in flight on the 1→0
// connection. The two are different sockets, so nothing orders the failure
// after the announcement; party 0 must hold it, hear the done a few
// milliseconds later, and finish — not declare party 1 dead.
func TestAsyncWriteFailureBeforeDoneIsNotFatal(t *testing.T) {
	const n = 2
	tr := tree.NewPath(8)
	inputs := []tree.VertexID{0, 7}
	machines := make([]driver.EventMachine, n)
	for i := range machines {
		p, err := async.NewPipeline(tr, n, 0, async.PartyID(i), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = p
	}
	injected := errors.New("injected write failure")
	got, err := AsyncLocalCluster(n, machines, Options{
		SetupTimeout: 10 * time.Second, RoundTimeout: 10 * time.Second,
		WrapConn: func(from, to sim.PartyID, conn net.Conn) net.Conn {
			switch {
			case from == 0 && to == 1:
				// Party 0's announcement reaches party 1, but the write
				// reports failure — what a reset racing the last bytes does.
				return doneConn{conn, func(write func() (int, error)) (int, error) {
					write()
					return 0, injected
				}}
			case from == 1 && to == 0:
				return doneConn{conn, func(write func() (int, error)) (int, error) {
					time.Sleep(50 * time.Millisecond)
					return write()
				}}
			}
			return conn
		},
	})
	if err != nil {
		t.Fatalf("write-side failure ahead of the peer's done frame killed the run: %v", err)
	}
	if len(got.Outputs) != n {
		t.Fatalf("%d of %d parties decided", len(got.Outputs), n)
	}
}
