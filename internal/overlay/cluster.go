package overlay

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// Cluster executes machines over the communication tree: one TCP node per
// party on 127.0.0.1 loopback, connected along the Layout's edges instead
// of a full mesh. For any configuration it accepts, its Result — outputs,
// rounds, message and byte counts, trace — is byte-for-byte the Result of
// sim.Run on the same inputs; the equivalence tests pin that. Message and
// byte counts are logical (counted at the emitting party per recipient,
// exactly as the engine counts), independent of how many physical relay
// hops the overlay spent; the physical side lands in Options.Wire/Stats.
//
// Adversaries are rejected outright (errAdversary). The tamper hook needs a
// global arbiter and is rejected for the same reason as in the tcp
// transport.
func Cluster(cfg sim.Config, machines []sim.Machine, opts Options) (*sim.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	if cfg.Adversary != nil {
		return nil, errAdversary
	}
	if cfg.Tamper != nil {
		return nil, fmt.Errorf("overlay: the delivery-seam tamper hook requires a global arbiter " +
			"between send and delivery; the tree overlay has none — use the in-process transport")
	}
	opts = opts.withDefaults()
	lay, err := NewLayout(cfg.N, opts.Branching)
	if err != nil {
		return nil, err
	}
	for p, r := range opts.CrashPlan {
		if p < 0 || int(p) >= cfg.N {
			return nil, fmt.Errorf("overlay: crash plan names party %d, out of range [0, %d)", p, cfg.N)
		}
		if r <= 0 {
			return nil, fmt.Errorf("overlay: crash plan round %d for party %d, want > 0", r, p)
		}
		if opts.Restart == nil {
			return nil, fmt.Errorf("overlay: crash plan requires Options.Restart to rebuild machines")
		}
	}

	// Bind every interior party's listener first: leaves dial as soon as
	// they start, and a bind failure should abort before goroutines exist.
	// Leaves accept nothing, which is the whole point — only root and
	// sub-leaders pay a listen socket.
	addrs := make([]string, cfg.N)
	listeners := make(map[sim.PartyID]net.Listener, lay.Subleaders+1)
	for p := sim.PartyID(0); int(p) < cfg.N; p++ {
		if !lay.Interior(p) {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("overlay: binding party %d: %w", p, err)
		}
		listeners[p] = ln
		addrs[p] = ln.Addr().String()
	}
	session := transport.NewSession()

	// Seat every party's first incarnation before any goroutine runs: the
	// accept hosts route inbound hellos through the holders, and with one
	// core scheduling hundreds of goroutines a leaf can easily dial before
	// its parent's supervisor ever ran — an unseated holder would bounce
	// the join.
	runs := make([]func() (*driver.Result, error), cfg.N)
	stops := make([]func(), cfg.N)
	for p := sim.PartyID(0); int(p) < cfg.N; p++ {
		hold := &holder{}
		nd := newNode(p, lay, machines[p], cfg.MaxRounds, session, addrs, opts)
		nd.crashRound = opts.CrashPlan[p]
		hold.set(nd)
		runs[p] = func() (*driver.Result, error) { return supervise(nd, hold) }
		stops[p] = hold.shutdown
		if ln, ok := listeners[p]; ok {
			host := transport.NewAcceptHost(ln, hold.accept)
			stops[p] = func() { host.Close(); hold.shutdown() }
		}
	}
	parties, err := transport.RunAll(runs, stops)
	if err != nil {
		return nil, err
	}
	res, err := driver.Merge(cfg.Trace, nil, parties, nil)
	if err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}
	return res, nil
}

// holder tracks a party's current node incarnation: the cluster aborts it
// through the holder, and an interior party's AcceptHost hands it inbound
// connections.
type holder struct {
	mu sync.Mutex
	nd *node
}

func (h *holder) set(nd *node) { h.mu.Lock(); h.nd = nd; h.mu.Unlock() }

func (h *holder) get() *node {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nd
}

// shutdown aborts the current incarnation, unblocking it (and peers stuck
// on its barrier bits) promptly.
func (h *holder) shutdown() { h.get().shutdown(false) }

// accept is the AcceptHost handler of an interior seat: it validates the
// inbound hello off the main loop and hands a good one to whichever node
// holds the seat once the hello is in. A dead seat (crashed, restarting)
// just closes the connection — the dialer's retry loop carries the child
// until the restarted node is back.
func (h *holder) accept(conn net.Conn) { go h.handshake(conn) }

func (h *holder) handshake(conn net.Conn) {
	seat := h.get() // session, layout and options are the same in every incarnation
	conn.SetReadDeadline(time.Now().Add(seat.opts.SetupTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := transport.ReadFrame(br, transport.MaxFrameSize)
	if err != nil {
		conn.Close()
		return
	}
	seat.opts.Wire.AddRecv(len(body))
	hel, err := parseHello(body)
	if err != nil {
		conn.Close()
		return
	}
	if hel.session != seat.session || hel.to != seat.id || hel.n != seat.lay.N ||
		hel.branch != seat.lay.Branching || hel.from == seat.id ||
		hel.from < 0 || int(hel.from) >= seat.lay.N {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	nd := h.get()
	if nd.closed() {
		conn.Close()
		return
	}
	nd.enqueue(levent{hs: &inbound{conn: conn, br: br, h: hel}})
}

// supervise runs one party from its pre-seated first incarnation,
// restarting it across injected crashes. The restarted incarnation starts
// blank — fresh machine, zero watermarks, no scheduled crash — and
// recovers entirely through the handshake replay; only its last
// incarnation's accounting reaches the merge, mirroring what the engine
// counts for a party that was "always up".
func supervise(nd *node, hold *holder) (*driver.Result, error) {
	for {
		res, err := nd.run()
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, errCrashed) {
			return nil, err
		}
		m, rerr := nd.opts.Restart(nd.id)
		if rerr != nil {
			return nil, fmt.Errorf("overlay: restarting party %d: %w", nd.id, rerr)
		}
		nd = newNode(nd.id, nd.lay, m, nd.maxRounds, nd.session, nd.addrs, nd.opts)
		hold.set(nd)
	}
}
