package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// This file is the transport's recovery layer: the AcceptHost every seat
// listens behind, and the crash-restart supervision that lets an honest
// party die mid-round and rejoin from its peers' history. The resume that
// carries both a dropped link and a restart — a count exchange on every link
// generation — is the endpoint's (endpoint.go).

// errCrashed is the internal signal a supervised node returns when its
// CrashPlan round fires; superviseNode catches it and restarts the party.
var errCrashed = errors.New("transport: injected crash")

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
// machine and a fresh endpoint on the same listener. The restarted party
// rebuilds every inbox from the history its peers resend (its counts are
// zero), re-steps its deterministic machine from round 1, and suppresses
// regenerated frames its peers' counts say they hold — so the merged Result
// is byte-identical to an execution that never crashed.
func superviseNode(cfg nodeConfig, host *AcceptHost, opts Options) (*driver.Result, error) {
	res, err := runNode(cfg)
	for errors.Is(err, errCrashed) {
		if c := opts.Chaos; c != nil {
			c.Crashes.Add(1)
		}
		// Seated first: the peers' redials find the next incarnation, not
		// the dead one's closed link set.
		prev := cfg.ep
		cfg.ep = newEndpoint([]sim.PartyID{cfg.id}, prev.n, prev.addrs, prev.session, opts)
		host.Seat(cfg.ep.links[cfg.id].Accept)
		m, rerr := opts.Restart(cfg.id)
		if rerr != nil {
			return nil, fmt.Errorf("transport: restarting party %d: %w", cfg.id, rerr)
		}
		cfg.machine = m
		cfg.crashRound = 0 // one crash per plan entry; the restart runs clean
		res, err = runNode(cfg)
	}
	return res, err
}
