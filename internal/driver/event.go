package driver

import (
	"fmt"

	"treeaa/internal/async"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// EventMachine is the event-driven protocol machine an Event runs;
// *async.Pipeline satisfies it. Beyond the async.Machine triple it must
// price its own flood budget and map payloads to envelope rounds.
type EventMachine interface {
	async.Machine
	// EnvelopeRound maps an outgoing payload to the envelope's round field
	// (≥ 1) — asynchronous progress for observers and chaos windows, never
	// waited on.
	EnvelopeRound(payload any) int
	// DeliveryBudget bounds the deliveries this party will consume; the
	// driver fails the run when it is exceeded (the flood guard the round
	// cap can no longer be).
	DeliveryBudget() int
}

// EventSink receives what an Event emits.
type EventSink interface {
	// Send ships one protocol message — the machine's payloads are wire
	// payloads — to its remote recipients, at once; otherwise Sink.Emit's
	// contract.
	Send(round int, to sim.PartyID, payload any) error
	// Announce broadcasts this party's one-and-only done announcement.
	Announce() error
}

// Event drives one party of the asynchronous model: every arrival is
// delivered to the machine at once and whatever it emits fans out at once —
// no rounds, no barriers. Self-addressed traffic queues locally and is
// delivered FIFO before Deliver returns, so local causality runs ahead of
// the network. The party announces its decision once, keeps amplifying for
// its undecided peers, and is finished when it has decided and every peer
// has announced.
type Event struct {
	id      sim.PartyID
	n       int
	machine EventMachine
	sink    EventSink

	budget, deliveries int
	selfq              []async.Message // pending self-deliveries; selfq[head:] is live
	head               int
	peerDone           []bool
	peersDone          int
	decided            bool
	output             any
	tally              Tally
}

// NewEvent returns a driver for party id of n.
func NewEvent(id sim.PartyID, n int, machine EventMachine, sink EventSink) *Event {
	return &Event{id: id, n: n, machine: machine, sink: sink,
		budget: machine.DeliveryBudget(), peerDone: make([]bool, n)}
}

// Start ships the machine's opening messages.
func (e *Event) Start() error {
	if err := e.dispatch(e.machine.Init()); err != nil {
		return err
	}
	return e.settle()
}

// Deliver hands the machine one arrived wire payload from a peer. Any round
// is legal: arbitrarily old and new iterations both arrive in this model.
func (e *Event) Deliver(from sim.PartyID, payload any) error {
	switch payload.(type) {
	case wire.AsyncValue, wire.AsyncReport:
	default:
		return fmt.Errorf("party %d: non-async payload %T from party %d (peer running -mode sync?)",
			e.id, payload, from)
	}
	if err := e.deliver(async.Message{From: from, To: e.id, Payload: payload}); err != nil {
		return err
	}
	return e.settle()
}

// PeerDone records a peer's done announcement, which must be one-shot and
// must say done.
func (e *Event) PeerDone(from sim.PartyID, done bool) error {
	if !done {
		return fmt.Errorf("party %d: non-done announcement from party %d", e.id, from)
	}
	if e.peerDone[from] {
		return fmt.Errorf("party %d: duplicate done from party %d", e.id, from)
	}
	e.peerDone[from] = true
	e.peersDone++
	return nil
}

// IsPeerDone reports whether p has announced.
func (e *Event) IsPeerDone(p sim.PartyID) bool { return e.peerDone[p] }

// PeersDone counts the peers that have announced.
func (e *Event) PeersDone() int { return e.peersDone }

// Finished reports whether this party decided and every peer announced.
func (e *Event) Finished() bool { return e.decided && e.peersDone == e.n-1 }

// Decided reports whether the machine has decided (and so announced).
func (e *Event) Decided() bool { return e.decided }

// Output returns the decision once Decided.
func (e *Event) Output() any { return e.output }

// Deliveries counts the messages delivered to the machine, self-deliveries
// included.
func (e *Event) Deliveries() int { return e.deliveries }

// Tally returns the sends so far.
func (e *Event) Tally() Tally { return e.tally }

func (e *Event) deliver(m async.Message) error {
	e.deliveries++
	if e.deliveries > e.budget {
		return fmt.Errorf("party %d: async delivery budget %d exceeded", e.id, e.budget)
	}
	return e.dispatch(e.machine.Deliver(m))
}

// settle drains the self queue — a self-delivery may emit further
// self-sends, which join the back of the queue rather than recursing — and
// announces the decision the moment the machine has one.
func (e *Event) settle() error {
	for e.head < len(e.selfq) {
		m := e.selfq[e.head]
		e.head++
		if err := e.deliver(m); err != nil {
			return err
		}
	}
	e.selfq, e.head = e.selfq[:0], 0
	if !e.decided {
		if v, ok := e.machine.Output(); ok {
			e.output, e.decided = v, true
			return e.sink.Announce()
		}
	}
	return nil
}

func (e *Event) dispatch(out []async.Message) error {
	for _, m := range out {
		first, last, err := e.tally.Charge(e.n, m.To, m.Payload)
		if err != nil {
			return fmt.Errorf("party %d: async %w", e.id, err)
		}
		if first <= e.id && e.id <= last {
			e.selfq = append(e.selfq, async.Message{From: e.id, To: e.id, Payload: m.Payload})
		}
		if err := e.sink.Send(e.machine.EnvelopeRound(m.Payload), m.To, m.Payload); err != nil {
			return fmt.Errorf("party %d: %w", e.id, err)
		}
	}
	return nil
}
