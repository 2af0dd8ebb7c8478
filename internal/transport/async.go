package transport

// Asynchronous mode: an event-driven driver over the same TCP substrate.
//
// Where runNode steps a sim.Machine in lock-step rounds fenced by eor
// barriers, runAsyncNode dispatches an async.Machine on every message
// *arrival*: there are no rounds, no barriers and no round timeouts. Frames
// still ride the frameMsg envelope — its round field carries the machine's
// EnvelopeRound (the AA iteration the payload belongs to), which is what
// round-windowed chaos clauses key on — but nothing ever waits for a
// round's mailbox to be complete. The only timeout is an *idle* timeout
// (Options.RoundTimeout reused): a party that hears nothing at all for
// that long while undecided concludes the run is wedged, which the
// asynchronous model says cannot happen on a live network, however slow.
//
// Termination has no shared round either. Each party announces its own
// decision with a frameAsyncDone control frame and keeps serving RBC
// echo/ready amplification for its still-undecided peers; it exits once it
// has decided *and* heard done from every peer. Because async-done is a
// control frame, chaos latency lets it pass — and since a decided peer
// discards protocol traffic anyway, the driver purges the send queue of any
// peer that has announced done, so a latency-chaos soak drains in one
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
	"treeaa/internal/wire"
)

// AsyncResult is one async execution's summary.
type AsyncResult struct {
	Outputs    map[sim.PartyID]any
	Deliveries int // messages delivered to machines (self-deliveries included)
	Messages   int // point-to-point protocol sends, counted at send
	Bytes      int
}

// asyncNode adapts a driver.Event to the full mesh: frameMsg framing for
// protocol traffic, frameAsyncDone for the done announcement, an idle timer
// in place of the round timeout, and send-queue purging toward peers that
// announced (they discard protocol traffic anyway).
type asyncNode struct {
	id sim.PartyID
	n  int
	ep *endpoint
	ev *driver.Event
}

// Emit encodes the wire payload once and sends an envelope per remote
// recipient that has not announced done.
func (nd *asyncNode) Emit(round int, to sim.PartyID, payload any) error {
	body, err := wire.Encode(payload)
	if err != nil {
		return err
	}
	first, last := driver.Span(nd.n, to)
	for to := first; to <= last; to++ {
		if to != nd.id && !nd.ev.IsPeerDone(to) {
			nd.ep.send(nd.id, to, encodeMsg(frameMsg, round, to, body))
		}
	}
	return nil
}

// Announce broadcasts this party's decision. Peers that already announced
// discard protocol traffic, so their queues are purged first — the done
// frame must not wait out a chaos-delayed backlog they will throw away.
func (nd *asyncNode) Announce() error {
	done := encodeAsyncDone()
	for p := sim.PartyID(0); int(p) < nd.n; p++ {
		if p == nd.id {
			continue
		}
		if nd.ev.IsPeerDone(p) {
			nd.ep.purgeSender(nd.id, p)
		}
		nd.ep.send(nd.id, p, done)
	}
	return nil
}

// runAsyncNode executes one party event-wise: deliver whatever arrives,
// send whatever the machine emits, announce the decision, keep amplifying
// until every peer has announced too.
func runAsyncNode(id sim.PartyID, n int, machine driver.EventMachine, e *endpoint) (*driver.Event, error) {
	if err := e.start(); err != nil {
		return nil, err
	}
	defer e.shutdown(false)

	nd := &asyncNode{id: id, n: n, ep: e}
	nd.ev = driver.NewEvent(id, n, machine, nd)
	if err := nd.ev.Start(); err != nil {
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
	for !nd.ev.Finished() {
		select {
		case ev := <-e.events:
			if ev.err != nil {
				if nd.ev.IsPeerDone(ev.from) {
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
			switch ev.f.typ {
			case frameMsg:
				if err := nd.ev.Deliver(ev.from, ev.f.payload); err != nil {
					return nil, fmt.Errorf("transport: %w", err)
				}
			case frameAsyncDone:
				// Our own purge-and-resend below makes duplicate announcements
				// benign on this substrate; only the first one counts.
				if !nd.ev.IsPeerDone(ev.from) {
					_ = nd.ev.PeerDone(ev.from, true) // a first announcement saying done cannot fail
					// Everything queued to a decided peer is discard-bound —
					// except our own pending done announcement, so re-enqueue
					// it after the purge.
					e.purgeSender(id, ev.from)
					if nd.ev.Decided() {
						e.send(id, ev.from, encodeAsyncDone())
					}
				}
			default:
				return nil, fmt.Errorf("transport: party %d: unexpected frame type 0x%02x from party %d in async mode",
					id, ev.f.typ, ev.from)
			}
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(e.opts.RoundTimeout)
		case <-idle.C:
			err := fmt.Errorf("transport: party %d: async mode idle for %v with %d/%d peers done "+
				"(wedged run: a peer died or the network stopped delivering)",
				id, e.opts.RoundTimeout, nd.ev.PeersDone(), n-1)
			for p, cause := range writeFail {
				if cause != nil && !nd.ev.IsPeerDone(sim.PartyID(p)) {
					return nil, fmt.Errorf("%w: %w", err, cause)
				}
			}
			return nil, err
		case <-e.quit:
			return nil, fmt.Errorf("transport: party %d: endpoint closed while undecided", id)
		}
	}
	e.shutdown(true) // flush the queued done frames before the FIN
	return nd.ev, nil
}

// purgeSender drains every frame queued on the (from → to) link that the
// write loop has not yet picked up. Only safe when the peer provably
// discards them (it announced done); at most one already-dequeued frame can
// still suffer its chaos delay ahead of whatever is enqueued next.
func (e *endpoint) purgeSender(from, to sim.PartyID) int {
	s := e.senders[from][to]
	if s == nil {
		return 0
	}
	purged := 0
	for {
		select {
		case _, ok := <-s.ch:
			if !ok {
				return purged
			}
			purged++
		default:
			return purged
		}
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
