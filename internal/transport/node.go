package transport

import (
	"fmt"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// nodeConfig drives one honest party over an endpoint.
type nodeConfig struct {
	id        sim.PartyID
	n         int
	maxRounds int
	// observer, when ≥ 0, is the corrupted party every expanded send is
	// mirrored to. It emulates the model's *rushing* adversary, which sees
	// all honest round-r traffic before choosing its own: on a real network
	// nobody gets that view for free, so the honest nodes grant it
	// explicitly to the adversary host's observer party.
	observer sim.PartyID
	machine  sim.Machine
	ep       *endpoint
	// crashRound, when > 0, injects a crash: the node dies abruptly in that
	// round, its frame out to the lower half of its peers only, and returns
	// errCrashed for superviseNode to catch.
	crashRound int
}

// meshNode adapts a driver.Round to the full mesh. The round's frame is the
// driver's; what is the mesh's is the mirror of every send to the rushing
// observer, the injected crash, the barrier wait and the per-peer connection
// failures a stalled barrier is blamed on.
type meshNode struct {
	nodeConfig
	rd       *driver.Round
	fr       *driver.Framer
	peers    []sim.PartyID         // ascending
	crashing bool                  // the round being shipped is crashRound
	fail     map[sim.PartyID]error // first connection failure per peer
}

// runNode executes one honest machine in lock step with its peers. The
// window is unbounded: a crash-restarted party is handed its peers' whole
// frame history at once.
func runNode(cfg nodeConfig) (*driver.Result, error) {
	e := cfg.ep
	if err := e.start(); err != nil {
		return nil, err
	}
	defer e.shutdown(false)

	nd := &meshNode{nodeConfig: cfg, fail: make(map[sim.PartyID]error)}
	// Session id 0: the hello scoped every link to this one execution.
	nd.fr = driver.NewFramer(cfg.id, cfg.n, 0, nd.send)
	nd.rd = driver.NewRound(cfg.id, cfg.n, cfg.maxRounds, 0, cfg.machine, nd)
	for p := sim.PartyID(0); int(p) < cfg.n; p++ {
		if p != cfg.id {
			nd.peers = append(nd.peers, p)
		}
	}
	for {
		roundStart := time.Now()
		finished, err := nd.rd.Advance()
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		if finished {
			e.shutdown(true)
			return nd.rd.Result(), nil
		}
		if err := nd.awaitBarrier(); err != nil {
			return nil, err
		}
		if c := e.opts.Chaos; c != nil {
			c.AddRoundLatency(time.Since(roundStart))
		}
	}
}

// Emit hands the message to the round's frame and, when a rushing observer
// is configured, mirrors it there first — one mirror frame per recipient,
// self included — so on the link to the observer a round's mirrors precede
// the frame that carries its mark.
func (nd *meshNode) Emit(round int, to sim.PartyID, payload any) error {
	if nd.observer >= 0 {
		body, err := wire.Encode(payload)
		if err != nil {
			return err
		}
		first, last := driver.Span(nd.n, to)
		for to := first; to <= last; to++ {
			nd.ep.send(nd.id, nd.observer, encodeMirror(round, to, body))
		}
	}
	return nd.fr.Emit(round, to, payload)
}

func (nd *meshNode) EndRound(round int, done bool) error {
	nd.crashing = round == nd.crashRound
	err := nd.fr.EndRound(round, done)
	if nd.crashing {
		// Injected crash: die in the send loop, the round's frame out
		// (possibly unflushed) to some peers and not to the rest, who stall at
		// their round-r barriers until the supervisor restarts us.
		nd.ep.shutdown(false)
		return fmt.Errorf("%w: party %d at round %d", errCrashed, nd.id, round)
	}
	return err
}

// send puts a round's frame on its recipients' links — in the crash round,
// on those of the lower half of the peers only.
func (nd *meshNode) send(to sim.PartyID, frame []byte) {
	var keep func(sim.PartyID) bool
	if nd.crashing {
		keep = func(p sim.PartyID) bool { return p < nd.peers[len(nd.peers)/2] }
	}
	nd.ep.ship(nd.id, to, frame, keep)
}

// awaitBarrier consumes events until round r's frame has arrived from every
// peer, filing the frames of later rounds as they pass by. Anything but a
// round frame is rejected — a mirror is the adversary host's observer's.
func (nd *meshNode) awaitBarrier() error {
	e, r := nd.ep, nd.rd.Round()
	timeout := time.NewTimer(e.opts.RoundTimeout)
	defer timeout.Stop()
	for !nd.rd.Ready() {
		select {
		case ev := <-e.events:
			if err := nd.handle(ev); err != nil {
				return fmt.Errorf("transport: party %d: %w", nd.id, err)
			}
			// A failed peer that still owes round r stalls the barrier for good.
			// Failures of peers that already delivered it are benign — a
			// terminated peer closes its connections while slower parties are
			// still deciding.
			for _, p := range nd.peers {
				if err := nd.fail[p]; err != nil && !nd.rd.HasEOR(p) {
					return fmt.Errorf("transport: party %d waiting on round %d: %w", nd.id, r, err)
				}
			}
		case <-timeout.C:
			return fmt.Errorf("transport: party %d: round %d barrier timed out after %v", nd.id, r, e.opts.RoundTimeout)
		case <-e.quit:
			// Shutdown (deployment abort or context cancellation) while
			// blocked: exit promptly instead of riding out the round timeout.
			return fmt.Errorf("transport: party %d: endpoint closed while waiting on round %d", nd.id, r)
		}
	}
	return nil
}

func (nd *meshNode) handle(ev event) error {
	if ev.err != nil {
		if _, seen := nd.fail[ev.from]; !seen {
			nd.fail[ev.from] = ev.err
		}
		return nil
	}
	if ev.body[0] != FrameMuxSession {
		return fmt.Errorf("unexpected frame type 0x%02x from party %d", ev.body[0], ev.from)
	}
	return nd.rd.Apply(ev.from, ev.body[1:])
}
