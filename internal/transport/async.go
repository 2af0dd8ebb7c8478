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
// peer discards protocol traffic anyway, the node purges the send queue of
// any peer that has announced done, so a latency-chaos soak drains in one
// frame's delay instead of replaying the whole delayed backlog.
//
// The driver runs honest parties only. The model's rushing adversary is a
// synchronous-round concept (it needs a global view between send and
// delivery); asynchronous Byzantine behavior — equivocation, silence,
// flooding, adversarial scheduling — is exercised in-process by
// internal/check's async cells, where the scheduler itself is the
// adversary.

import (
	"fmt"
	"net"
	"time"

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

// runAsyncNode executes one party event-wise: deliver whatever arrives,
// send whatever the machine emits, announce the decision, keep amplifying
// until every peer has announced too. It adapts a driver.Event to the full
// mesh with an idle timer in place of the round timeout, and with nothing but
// the announcement toward peers that have announced (they discard protocol
// traffic anyway).
func runAsyncNode(id sim.PartyID, n int, machine driver.EventMachine, e *endpoint) (*driver.Event, error) {
	if err := e.start(); err != nil {
		return nil, err
	}
	defer e.shutdown(false)

	var drv *driver.Event
	drv = driver.NewEvent(id, n, machine, driver.NewFramer(id, n, 0, func(to sim.PartyID, frame []byte) {
		_, announce, _ := FrameInfo(frame)
		e.ship(id, to, frame, func(p sim.PartyID) bool { return announce || !drv.IsPeerDone(p) })
	}))
	if err := drv.Start(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	idle := time.NewTimer(e.opts.RoundTimeout)
	defer idle.Stop()
	// writeFail holds each peer's first write-side link failure. It proves
	// nothing by itself: a peer that decided, heard everyone and hung up
	// resets our writes while its done frame is still in flight on the other
	// connection. Only the read side failing — behind every frame the peer
	// sent — shows it died undecided; the held failure is then the cause.
	writeFail := make([]error, n)
	for !drv.Finished() {
		select {
		case ev := <-e.events:
			if ev.err != nil {
				if drv.IsPeerDone(ev.from) {
					continue // teardown: a decided peer exited and cut the link
				}
				if ev.writeSide {
					if writeFail[ev.from] == nil {
						writeFail[ev.from] = ev.err
					}
					continue
				}
				if cause := writeFail[ev.from]; cause != nil {
					ev.err = cause
				}
				return nil, fmt.Errorf("transport: party %d: %w", id, ev.err)
			}
			if ev.body[0] != FrameMuxSession {
				return nil, fmt.Errorf("transport: party %d: unexpected frame type 0x%02x from party %d in async mode",
					id, ev.body[0], ev.from)
			}
			heard := drv.IsPeerDone(ev.from)
			if err := drv.Apply(ev.from, ev.body[1:]); err != nil {
				return nil, fmt.Errorf("transport: %w", err)
			}
			if !heard && drv.IsPeerDone(ev.from) {
				// Everything queued to a decided peer is discard-bound, except
				// our own announcement.
				e.purgeSender(id, ev.from)
			}
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(e.opts.RoundTimeout)
		case <-idle.C:
			err := fmt.Errorf("transport: party %d: async mode idle for %v with %d/%d peers done "+
				"(wedged run: a peer died or the network stopped delivering)",
				id, e.opts.RoundTimeout, drv.PeersDone(), n-1)
			for p, cause := range writeFail {
				if cause != nil && !drv.IsPeerDone(sim.PartyID(p)) {
					return nil, fmt.Errorf("%w: %w", err, cause)
				}
			}
			return nil, err
		case <-e.quit:
			return nil, fmt.Errorf("transport: party %d: endpoint closed while undecided", id)
		}
	}
	e.shutdown(true) // flush the queued announcements before the FIN
	return drv, nil
}

// purgeSender drains the protocol frames queued on the (from → to) link
// that the write loop has not yet picked up; an announcement among them goes
// back on the queue. Only safe when the peer provably discards them (it
// announced done); at most one already-dequeued frame can still suffer its
// chaos delay ahead of whatever is enqueued next. Called by the node loop,
// the queue's one producer.
func (e *endpoint) purgeSender(from, to sim.PartyID) {
	s := e.senders[from][to]
	var keep [][]byte
	for {
		select {
		case b, ok := <-s.ch:
			if !ok {
				return
			}
			if _, control, _ := FrameInfo(b); control {
				keep = append(keep, b)
			}
			continue
		default:
		}
		break
	}
	for _, b := range keep {
		e.send(from, to, b)
	}
}

// AsyncLocalCluster executes one async machine per party as a real
// networked system on loopback TCP — the asynchronous counterpart of
// LocalCluster. All parties are honest (see the package comment on why the
// driver hosts no adversary); faults come from the chaos injector in opts
// and from real scheduling nondeterminism.
func AsyncLocalCluster(n int, machines []driver.EventMachine, opts Options) (*AsyncResult, error) {
	if n <= 0 || len(machines) != n {
		return nil, fmt.Errorf("transport: %d async machines for n = %d", len(machines), n)
	}
	for i, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("transport: nil async machine for party %d", i)
		}
	}
	if err := checkAsyncOptions(opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	listeners, addrs, err := bindLoopback(n)
	if err != nil {
		return nil, err
	}
	session := NewSession()

	runs := make([]func() (*driver.Event, error), n)
	stops := make([]func(), n)
	for p := sim.PartyID(0); int(p) < n; p++ {
		runs[p], stops[p] = asyncSeat(p, n, machines[p], listeners[p], addrs, session, opts)
	}
	events, err := RunAll(runs, stops)
	if err != nil {
		return nil, err
	}
	out := &AsyncResult{Outputs: make(map[sim.PartyID]any, n)}
	for p, ev := range events {
		out.Outputs[sim.PartyID(p)] = ev.Output()
		out.Deliveries += ev.Deliveries()
		out.Messages += ev.Tally().Msgs
		out.Bytes += ev.Tally().Bytes
	}
	return out, nil
}

// asyncSeat prepares one event-driven party behind an AcceptHost on its
// bound listener and returns the function that runs it to completion and the
// one that tears it down.
func asyncSeat(id sim.PartyID, n int, machine driver.EventMachine, ln net.Listener, addrs []string,
	session uint64, opts Options) (run func() (*driver.Event, error), stop func()) {
	ep := newEndpoint([]sim.PartyID{id}, n, addrs, session, opts)
	host := NewAcceptHost(ln, ep.accept(id))
	return func() (*driver.Event, error) { return runAsyncNode(id, n, machine, ep) },
		func() { host.Close(); ep.shutdown(false) }
}

// checkAsyncOptions rejects the one recovery path built on the lock-step
// round structure. Reconnect is not: seq/ack resume replays whatever the peer
// has not acknowledged, rounds or no rounds.
func checkAsyncOptions(opts Options) error {
	if len(opts.CrashPlan) > 0 || opts.Restart != nil {
		return fmt.Errorf("transport: crash-restart recovery re-steps a fresh machine through its peers' " +
			"replayed round history, which an event-driven seat does not have; " +
			"crash clauses require lock-step machines")
	}
	return nil
}
