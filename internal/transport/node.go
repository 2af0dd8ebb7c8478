package transport

import (
	"fmt"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// meshNode adapts a driver.Round to the full mesh. The round's frame is the
// driver's; what is the mesh's is the mirror of every send to the rushing
// observer, the write at the dry point before the barrier wait, and the
// wait itself.
type meshNode struct {
	id sim.PartyID
	// observer, when ≥ 0, is the corrupted party every send is mirrored
	// to. It emulates the model's *rushing* adversary, which sees
	// all honest round-r traffic before choosing its own: on a real network
	// nobody gets that view for free, so the honest nodes grant it
	// explicitly to the adversary host's observer party.
	observer sim.PartyID
	ep       *endpoint
	rd       *driver.Round
	fr       *driver.Framer
}

// runNode executes one honest lock-step seat in lock step with its peers.
// The window is unbounded; the barrier already keeps every peer within a
// round of this one.
func runNode(s seated, e *endpoint) (*ProcessResult, error) {
	if err := e.start(); err != nil {
		return nil, err
	}
	defer e.shutdown(false)

	n := s.Config.N
	nd := &meshNode{id: s.ID, observer: -1, ep: e}
	if len(s.corrupted) > 0 {
		nd.observer = s.corrupted[0]
	}
	// Session id 0: the hello scoped every link to this one execution.
	nd.fr = driver.NewFramer(s.ID, n, 0, nd.send)
	nd.rd = driver.NewRound(s.ID, n, s.Config.MaxRounds, 0, s.machine, nd)
	for {
		roundStart := time.Now()
		finished, err := nd.rd.Advance()
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		if finished {
			e.finish()
			return &ProcessResult{Result: *nd.rd.Result()}, nil
		}
		err = e.wait(fmt.Sprintf("party %d waiting on round %d", s.ID, nd.rd.Round()), false,
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

func (nd *meshNode) EndRound(round int, done bool) error { return nd.fr.EndRound(round, done) }

// send puts a round's frame on its recipient's link, or on every link.
func (nd *meshNode) send(to sim.PartyID, frame []byte) { nd.ep.ship(nd.id, to, frame, nil) }

// handle files one event of the barrier wait: a round frame. Anything else
// is rejected — a mirror is the adversary host's observer's.
func (nd *meshNode) handle(ev event) error {
	if ev.body[0] != FrameMuxSession {
		return fmt.Errorf("unexpected frame type 0x%02x from party %d", ev.body[0], ev.from)
	}
	return nd.rd.Apply(ev.from, ev.body[1:])
}
