package transport

// Asynchronous mode: an event-driven driver over the same TCP substrate.
//
// Where runNode steps a sim.Machine in lock-step rounds fenced by barriers,
// runAsyncNode dispatches an async.Machine on every message *arrival*: there
// are no rounds, no barriers and no round timeouts. Frames are still the
// driver's round frames, one message each — the round field carries the
// machine's EnvelopeRound (the AA iteration the payload belongs to), which
// is what round-windowed chaos clauses key on — but nothing ever waits for a
// round's mailbox to be complete. The only timeout is an *idle* timeout
// (Options.RoundTimeout reused): a party that hears nothing at all for
// that long while undecided concludes the run is wedged, which the
// asynchronous model says cannot happen on a live network, however slow.
//
// Termination has no shared round either. Each party announces its own
// decision with an empty done-marked frame and keeps serving RBC echo/ready
// amplification for its still-undecided peers; it exits once it has decided
// *and* heard done from every peer. Because FrameInfo classifies the
// announcement as control, chaos latency lets it pass — and since a decided
// peer discards protocol traffic anyway, the node drops what is still staged
// for any peer that has announced done, so a latency-chaos soak drains in
// one write's delay instead of replaying the whole delayed backlog.
//
// The driver runs honest parties only. The model's rushing adversary is a
// synchronous-round concept (it needs a global view between send and
// delivery); asynchronous Byzantine behavior — equivocation, silence,
// flooding, adversarial scheduling — is exercised in-process by
// internal/check's async cells, where the scheduler itself is the
// adversary.

import (
	"fmt"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// AsyncResult is one async execution's summary.
type AsyncResult struct {
	Outputs    map[sim.PartyID]any
	Deliveries int // messages delivered to machines (self-deliveries included)
	Messages   int // point-to-point protocol sends, counted at send
	Bytes      int
}

// runAsyncNode executes one event seat: deliver whatever arrives, send
// whatever the machine emits, announce the decision, keep amplifying until
// every peer has announced too. It adapts a driver.Event to the full mesh
// with an idle timer in place of the round timeout, and with nothing but
// the announcement toward peers that have announced (they discard protocol
// traffic anyway). Having no rounds, it reports its sends as one tally.
func runAsyncNode(s seated, e *endpoint) (*ProcessResult, error) {
	if err := e.start(); err != nil {
		return nil, err
	}
	defer e.shutdown(false)

	id, n := s.ID, s.Config.N
	var drv *driver.Event
	drv = driver.NewEvent(id, n, s.Event, driver.NewFramer(id, n, 0, func(to sim.PartyID, frame []byte) {
		_, announce, _ := FrameInfo(frame)
		e.ship(id, to, frame, func(p sim.PartyID) bool { return announce || !drv.IsPeerDone(p) })
	}))
	if err := drv.Start(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	// A link failure reaches the loop behind every frame the peer sent, its
	// announcement included: a peer that announced and hung up is done; one
	// that did not died undecided.
	err := e.wait(fmt.Sprintf("party %d undecided", id), true, drv.Finished, func(ev event) error {
		if ev.body[0] != FrameMuxSession {
			return fmt.Errorf("unexpected frame type 0x%02x from party %d in async mode", ev.body[0], ev.from)
		}
		heard := drv.IsPeerDone(ev.from)
		if err := drv.Apply(ev.from, ev.body[1:]); err != nil {
			return err
		}
		if !heard && drv.IsPeerDone(ev.from) {
			e.discard(id, ev.from) // a decided peer needs nothing but our announcement
		}
		return nil
	}, func(p sim.PartyID) bool { return !drv.IsPeerDone(p) })
	if err != nil {
		// An idle timeout means a wedged run: a peer died or the network
		// stopped delivering.
		return nil, fmt.Errorf("%w (%d/%d peers done)", err, drv.PeersDone(), n-1)
	}
	e.finish() // write the staged announcements before the FIN
	return &ProcessResult{Result: driver.Result{ID: id, Output: drv.Output(), PerRound: []driver.Tally{drv.Tally()}},
		Deliveries: drv.Deliveries()}, nil
}

// AsyncLocalCluster executes one async machine per party as a real
// networked system on loopback TCP — the asynchronous counterpart of
// LocalCluster, started the same way, one Seat per party. All parties are
// honest (see the package comment on why the driver hosts no adversary);
// faults come from the chaos injector in opts and from real scheduling
// nondeterminism.
func AsyncLocalCluster(n int, machines []driver.EventMachine, opts Options) (*AsyncResult, error) {
	if len(machines) != n {
		return nil, fmt.Errorf("transport: %d async machines for n = %d", len(machines), n)
	}
	seats := make([]Seat, n)
	for p := range seats {
		seats[p] = Seat{ID: sim.PartyID(p), Config: sim.Config{N: n}, Event: machines[p]}
	}
	_, results, err := runLoopback(seats, opts)
	if err != nil {
		return nil, err
	}
	out := &AsyncResult{Outputs: make(map[sim.PartyID]any, n)}
	for p, res := range results {
		sent := res.Total()
		out.Outputs[sim.PartyID(p)] = res.Output
		out.Deliveries += res.Deliveries
		out.Messages += sent.Msgs
		out.Bytes += sent.Bytes
	}
	return out, nil
}
