package overlay

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"treeaa/internal/sim"
	"treeaa/internal/wire"

	"treeaa/internal/transport"
)

// link is one duplex tree edge as seen from this node: a writer goroutine
// draining a queue in batches (one bufio flush per drained batch, so bursts
// of relays coalesce into few syscalls), and a reader goroutine turning
// inbound frames into node events. The node's main loop only ever appends
// to the queue, so it never blocks on TCP backpressure — the peer's reader
// always drains, which keeps the tree deadlock-free for the same reason the
// mesh transport is.
type link struct {
	peer sim.PartyID
	nd   *node
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	mu      sync.Mutex
	cond    *sync.Cond
	q       [][]byte
	closing bool
	failed  bool

	wdone chan struct{}
}

func newLink(nd *node, peer sim.PartyID, conn net.Conn, br *bufio.Reader) *link {
	l := &link{peer: peer, nd: nd, conn: conn, br: br,
		bw: bufio.NewWriterSize(conn, 64<<10), wdone: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.writeLoop()
	return l
}

// send enqueues one frame body (length prefix added at write time). Safe
// from the main loop only; never blocks.
func (l *link) send(body []byte) {
	l.mu.Lock()
	if !l.closing {
		l.q = append(l.q, body)
		l.cond.Signal()
	}
	l.mu.Unlock()
}

func (l *link) writeLoop() {
	defer close(l.wdone)
	var scratch []byte
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closing {
			l.cond.Wait()
		}
		batch := l.q
		l.q = nil
		closing := l.closing
		l.mu.Unlock()

		if len(batch) > 0 && !l.failed {
			l.conn.SetWriteDeadline(time.Now().Add(roundTimeout))
			for _, body := range batch {
				scratch = transport.AppendFrame(scratch[:0], body)
				if _, err := l.bw.Write(scratch); err != nil {
					l.fail(err)
					break
				}
				l.nd.opts.Wire.AddSent(len(scratch))
			}
			if !l.failed {
				if err := l.bw.Flush(); err != nil {
					l.fail(err)
				} else {
					l.nd.opts.Stats.Batches.Add(1)
				}
			}
		}
		if closing {
			if !l.failed {
				l.bw.Flush()
			}
			return
		}
	}
}

func (l *link) fail(err error) {
	l.failed = true
	l.nd.enqueue(levent{l: l, err: fmt.Errorf("overlay: link %d↔%d write: %w", l.nd.id, l.peer, err)})
}

// startReader begins decoding inbound frames. The node calls it only after
// the link is registered and any replay is queued, so no event can race the
// handshake's bookkeeping.
func (l *link) startReader() {
	go func() {
		for {
			l.conn.SetReadDeadline(time.Now().Add(roundTimeout))
			body, err := transport.ReadFrame(l.br, transport.MaxFrameSize)
			if err != nil {
				l.nd.enqueue(levent{l: l, err: fmt.Errorf("overlay: link %d↔%d read: %w", l.nd.id, l.peer, err)})
				return
			}
			l.nd.opts.Wire.AddRecv(len(body))
			pay, err := wire.Decode(body)
			if err != nil {
				l.nd.enqueue(levent{l: l, err: fmt.Errorf("overlay: link %d↔%d frame: %w", l.nd.id, l.peer, err)})
				return
			}
			l.nd.enqueue(levent{l: l, pay: pay, raw: body})
		}
	}()
}

// drain flushes queued frames and closes the connection — how a node makes
// its final release frame reach its children before the FIN does.
func (l *link) drain(budget time.Duration) {
	l.mu.Lock()
	l.closing = true
	l.cond.Signal()
	l.mu.Unlock()
	select {
	case <-l.wdone:
	case <-time.After(budget):
	}
	l.conn.Close()
}

// close tears the link down abruptly (failover, error paths).
func (l *link) close() {
	l.mu.Lock()
	l.closing = true
	l.cond.Signal()
	l.mu.Unlock()
	l.conn.Close()
}
