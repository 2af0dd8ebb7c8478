package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// This file is the transport's recovery layer: the AcceptHost every seat
// listens behind, and — used only when Options.Reconnect is set (the chaos
// subsystem's territory) — sentinels that detect a dead connection
// promptly, the dial-with-resume handshake that replays unacknowledged
// frames, and the crash-restart supervision that lets an honest party die
// mid-round and rejoin from its peers' resend buffers.

// errCrashed is the internal signal a supervised node returns when its
// CrashPlan round fires; superviseNode catches it and restarts the party.
var errCrashed = errors.New("transport: injected crash")

// sentinel blocks on a read of a write-side connection. Nothing ever
// arrives on it after the handshake, so a returned read is either the FIN
// or RST of a dead link — reported to the write loop so it can reconnect
// before the next round's traffic piles up behind a broken socket — or a
// stray byte from a confused peer, which is treated the same way. The
// carried conn value lets the write loop discard signals from connections
// it has already replaced.
func (s *sender) sentinel(conn net.Conn) {
	var one [1]byte
	conn.SetReadDeadline(time.Time{})
	conn.Read(one[:])
	select {
	case s.redial <- conn:
	case <-s.e.quit:
	}
}

// reconnect repairs the link after its connection died: redial with
// exponential backoff within the round-timeout budget, resume-handshake to
// learn how many frames the peer holds, drop those from the resend buffer,
// and replay the rest in order. Runs on the write-loop goroutine, which is
// the only writer of s.conn.
func (s *sender) reconnect() bool {
	e := s.e
	if s.conn != nil {
		s.conn.Close()
	}
	deadline := time.Now().Add(e.opts.RoundTimeout)
	backoff := 5 * time.Millisecond
	for {
		if e.closed() || e.draining.Load() || time.Now().After(deadline) {
			return false
		}
		attempt := time.Now().Add(2 * backoff)
		if attempt.After(deadline) {
			attempt = deadline
		}
		conn, err := e.opts.Dialer(e.addrs[s.to], attempt)
		if err == nil {
			conn = e.opts.wrap(s.from, s.to, conn)
			e.track(conn)
			if acked, err := s.resume(conn, deadline); err == nil {
				s.replay(conn, acked)
				return true
			}
			conn.Close()
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// resume performs the reconnect handshake on a fresh connection: a hello
// with the resume flag, answered by the peer's hello-ack carrying its
// receive count for this link.
func (s *sender) resume(conn net.Conn, deadline time.Time) (uint64, error) {
	e := s.e
	hb := encodeHello(hello{session: e.session, from: s.from, to: s.to, n: e.n, resume: true})
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(hb); err != nil {
		return 0, err
	}
	e.opts.Stats.AddSent(len(hb))
	conn.SetWriteDeadline(time.Time{})
	return readHelloAck(conn, deadline, e.opts.Stats)
}

// replay installs the new connection and retransmits every buffered frame
// beyond the peer's acknowledged count, in original emission order.
func (s *sender) replay(conn net.Conn, acked uint64) {
	e := s.e
	s.mu.Lock()
	if acked > s.acked {
		s.acked = acked
	}
	i := 0
	for i < len(s.buf) && s.buf[i].seq <= s.acked {
		i++
	}
	if i > 0 {
		s.buf = append(s.buf[:0:0], s.buf[i:]...)
	}
	pending := append([]bufFrame(nil), s.buf...)
	s.mu.Unlock()

	s.conn = conn
	resent, resentBytes := 0, 0
	for _, f := range pending {
		if err := s.write(f.b); err != nil {
			// The replacement died too; the next write or sentinel signal
			// re-enters reconnect, and the buffer still holds everything.
			break
		}
		resent++
		resentBytes += len(f.b)
	}
	if c := e.opts.Chaos; c != nil {
		c.Reconnects.Add(1)
		c.FramesResent.Add(int64(resent))
		c.BytesResent.Add(int64(resentBytes))
	}
	go s.sentinel(conn)
}

// readHelloAck reads the peer's hello-ack from a write-side connection —
// the only inbound frame such a connection ever carries.
func readHelloAck(conn net.Conn, deadline time.Time, stats interface{ AddRecv(int) }) (uint64, error) {
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	body, err := ReadFrame(bufio.NewReaderSize(conn, 64), MaxFrameSize)
	if err != nil {
		return 0, fmt.Errorf("reading hello-ack: %w", err)
	}
	stats.AddRecv(len(body))
	return parseHelloAck(body)
}

// AcceptHost owns one seat's listener across incarnations: the listen
// address must outlive a crash-restarted party — peers redial it mid-run —
// so the listener lives here, and every accepted connection is handed to
// whichever incarnation currently holds the seat. The mesh endpoints and
// the tree overlay's interior nodes both sit behind one.
type AcceptHost struct {
	ln net.Listener

	mu     sync.Mutex
	handle func(net.Conn)
}

// NewAcceptHost starts accepting on ln for the seat's first holder. handle
// takes ownership of each connection and must not block; a holder that is
// gone closes it, and the dialer's backoff retries until the next one is
// seated.
func NewAcceptHost(ln net.Listener, handle func(net.Conn)) *AcceptHost {
	h := &AcceptHost{ln: ln, handle: handle}
	go h.loop()
	return h
}

// Seat installs the handler of the seat's next incarnation.
func (h *AcceptHost) Seat(handle func(net.Conn)) {
	h.mu.Lock()
	h.handle = handle
	h.mu.Unlock()
}

func (h *AcceptHost) loop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		handle := h.handle
		h.mu.Unlock()
		handle(conn)
	}
}

// Close releases the listen address; the accept loop exits.
func (h *AcceptHost) Close() { h.ln.Close() }

// superviseNode runs one honest party with crash-restart supervision: when
// the node's CrashPlan round fires it dies abruptly (connections cut
// mid-round, state lost), and the supervisor brings it back with a fresh
// machine and a resumed endpoint on the same listener. The restarted party
// rebuilds every inbox from its peers' replayed frame history, re-steps
// its deterministic machine from round 1, and suppresses regenerated
// frames its peers already hold — so the merged Result is byte-identical
// to an execution that never crashed.
func superviseNode(cfg nodeConfig, host *AcceptHost, opts Options) (*driver.Result, error) {
	res, err := runNode(cfg)
	for errors.Is(err, errCrashed) {
		if c := opts.Chaos; c != nil {
			c.Crashes.Add(1)
		}
		m, rerr := opts.Restart(cfg.id)
		if rerr != nil {
			return nil, fmt.Errorf("transport: restarting party %d: %w", cfg.id, rerr)
		}
		prev := cfg.ep
		ep := newEndpoint([]sim.PartyID{cfg.id}, prev.n, prev.addrs, prev.session, opts)
		ep.resumed = true
		host.Seat(ep.accept(cfg.id))
		cfg.machine = m
		cfg.ep = ep
		cfg.crashRound = 0 // one crash per plan entry; the restart runs clean
		res, err = runNode(cfg)
	}
	return res, err
}
