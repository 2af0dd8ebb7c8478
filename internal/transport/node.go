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
	// observer, when ≥ 0, is the corrupted party every send is mirrored
	// to. It emulates the model's *rushing* adversary, which sees
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
// observer, the injected crash, the write at the dry point before the
// barrier wait, and the wait itself.
type meshNode struct {
	nodeConfig
	rd       *driver.Round
	fr       *driver.Framer
	crashing bool // the round being shipped is crashRound
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

	nd := &meshNode{nodeConfig: cfg}
	// Session id 0: the hello scoped every link to this one execution.
	nd.fr = driver.NewFramer(cfg.id, cfg.n, 0, nd.send)
	nd.rd = driver.NewRound(cfg.id, cfg.n, cfg.maxRounds, 0, cfg.machine, nd)
	for {
		roundStart := time.Now()
		finished, err := nd.rd.Advance()
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		if finished {
			e.finish()
			return nd.rd.Result(), nil
		}
		err = e.wait(fmt.Sprintf("party %d waiting on round %d", cfg.id, nd.rd.Round()), false,
			nd.rd.Ready, nd.handle, func(p sim.PartyID) bool { return !nd.rd.HasEOR(p) })
		if err != nil {
			return nil, err
		}
		if c := e.opts.Chaos; c != nil {
			c.AddRoundLatency(time.Since(roundStart))
		}
	}
}

// Emit hands the message to the round's frame and, when a rushing observer
// is configured, mirrors it there first — one mirror frame per send, a
// broadcast once — so on the link to the observer a round's mirrors precede
// the frame that carries its mark.
func (nd *meshNode) Emit(round int, to sim.PartyID, payload any) error {
	if nd.observer >= 0 {
		body, err := wire.Encode(payload)
		if err != nil {
			return err
		}
		nd.ep.send(nd.id, nd.observer, encodeMirror(round, to, body))
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
		nd.ep.flush()
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
		// The lower half of the peers by ascending id: those below the
		// (n−1)/2-th, counting from 0 and skipping our own id.
		half := sim.PartyID((nd.n - 1) / 2)
		if half >= nd.id {
			half++
		}
		keep = func(p sim.PartyID) bool { return p < half }
	}
	nd.ep.ship(nd.id, to, frame, keep)
}

// handle files one event of the barrier wait: a round frame. Anything else
// is rejected — a mirror is the adversary host's observer's.
func (nd *meshNode) handle(ev event) error {
	if ev.body[0] != FrameMuxSession {
		return fmt.Errorf("unexpected frame type 0x%02x from party %d", ev.body[0], ev.from)
	}
	return nd.rd.Apply(ev.from, ev.body[1:])
}
