// Package async provides the asynchronous counterpart of the synchronous
// simulator: an event-driven message-passing runtime where the adversary
// controls delivery order (every message is delivered *eventually*, with no
// bound the protocol may rely on).
//
// The paper's comparison point for trees — Nowak & Rybicki's protocol [33]
// — lives in this model and achieves O(log D(T)) asynchronous rounds, which
// "remains the state of the art in the asynchronous model". This package
// implements that world: Bracha reliable broadcast (rbc.go), the witness
// technique for collecting (n-t)-overlapping value sets, asynchronous
// Approximate Agreement on reals and the NR-style asynchronous AA on trees
// (aa.go), and the asynchronous TreeAA pipeline (pipeline.go) — so the
// repository covers both sides of the paper's related-work comparison.
//
// Every protocol message is one Bracha step (Step) of an RBC instance named
// by integers — value or report, iteration, broadcaster — so a party's state
// is slices indexed by them, bounded by the iteration budget it was built with.
//
// Time in the asynchronous model is measured in causal depth ("async
// rounds"): each message carries depth = 1 + the maximum depth its sender
// had consumed when sending; the execution's depth is the longest such
// chain. A protocol's asynchronous round complexity is the depth it needs
// under the worst scheduler.
package async

import (
	"errors"
	"fmt"
	"math/rand"

	"treeaa/internal/sim"
)

// PartyID identifies one of the n parties, in [0, n).
type PartyID = sim.PartyID

// Broadcast is a destination wildcard expanded by the runtime.
const Broadcast = sim.Broadcast

// Message is a single authenticated point-to-point message. From is stamped
// by the runtime; Byzantine parties cannot forge origins.
type Message struct {
	From    PartyID
	To      PartyID
	Payload any

	depth int // causal depth, maintained by the runtime
}

// Machine is an event-driven protocol state machine for one party.
// Byzantine behaviors are Machines too: the adversary supplies arbitrary
// implementations for corrupted slots.
type Machine interface {
	// Init is called once before any delivery; it returns the party's
	// initial messages.
	Init() []Message
	// Deliver handles a single message and returns the messages it
	// triggers. The runtime calls it exactly once per delivered message.
	Deliver(m Message) []Message
	// Output returns the protocol output and whether the party has decided.
	// Decided machines may keep receiving deliveries (and must tolerate
	// them), as real asynchronous parties do.
	Output() (any, bool)
}

// Scheduler chooses which in-flight message is delivered next. The runtime
// guarantees eventual delivery only in the sense that it keeps asking until
// the pending set is empty; schedulers must eventually pick every message
// (all provided schedulers do).
type Scheduler interface {
	// Next returns the index into pending of the message to deliver.
	Next(pending []Message) int
}

// Config parameterizes an asynchronous execution.
type Config struct {
	// N is the number of parties.
	N int
	// Honest marks which parties' outputs are required for termination;
	// nil means all.
	Honest map[PartyID]bool
	// Scheduler orders deliveries; nil defaults to FIFO.
	Scheduler Scheduler
	// MaxDeliveries bounds the execution (guards against Byzantine
	// flooding); required.
	MaxDeliveries int
}

// Result summarizes an asynchronous execution.
type Result struct {
	// Outputs holds the decided parties' outputs.
	Outputs map[PartyID]any
	// Deliveries is the number of messages delivered.
	Deliveries int
	// Depth is the maximum causal depth consumed by any required party —
	// the execution's length in asynchronous rounds.
	Depth int
}

// Execution errors.
var (
	// ErrNotDecided reports required parties still undecided when the
	// pending set drained or MaxDeliveries was reached.
	ErrNotDecided = errors.New("async: required parties undecided")
)

// Run executes the machines until every required party has decided, the
// pending set drains, or MaxDeliveries is hit.
func Run(cfg Config, machines []Machine) (*Result, error) {
	if cfg.N <= 0 || len(machines) != cfg.N {
		return nil, fmt.Errorf("async: %d machines for N = %d", len(machines), cfg.N)
	}
	if cfg.MaxDeliveries <= 0 {
		return nil, fmt.Errorf("async: MaxDeliveries required")
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = FIFO{}
	}
	required := func(p PartyID) bool { return cfg.Honest == nil || cfg.Honest[p] }

	depth := make([]int, cfg.N) // causal depth consumed per party
	var pending []Message
	enqueue := func(from PartyID, msgs []Message) {
		d := depth[from] + 1
		for _, m := range msgs {
			m.From = from
			m.depth = d
			if m.To == Broadcast {
				for to := 0; to < cfg.N; to++ {
					mm := m
					mm.To = PartyID(to)
					pending = append(pending, mm)
				}
				continue
			}
			if m.To < 0 || int(m.To) >= cfg.N {
				continue // drop misaddressed Byzantine traffic
			}
			pending = append(pending, m)
		}
	}
	res := &Result{Outputs: make(map[PartyID]any)}
	waiting := 0 // required parties still undecided
	// note records p's output the first time it reports one.
	note := func(p PartyID) {
		if _, decided := res.Outputs[p]; decided {
			return
		}
		if v, ok := machines[p].Output(); ok {
			res.Outputs[p] = v
			if required(p) {
				waiting--
				res.Depth = max(res.Depth, depth[p])
			}
		}
	}
	for p, m := range machines {
		if required(PartyID(p)) {
			waiting++
		}
		enqueue(PartyID(p), m.Init())
		note(PartyID(p)) // a trivial input space decides without traffic
	}
	for len(pending) > 0 && res.Deliveries < cfg.MaxDeliveries {
		idx := sched.Next(pending)
		if idx < 0 || idx >= len(pending) {
			return nil, fmt.Errorf("async: scheduler returned invalid index %d", idx)
		}
		m := pending[idx]
		// Close the gap from the shorter side; either way the survivors keep
		// their order, which every scheduler's semantics depend on.
		if idx < len(pending)/2 {
			copy(pending[1:idx+1], pending[:idx])
			pending[0] = Message{}
			pending = pending[1:]
		} else {
			pending = append(pending[:idx], pending[idx+1:]...)
		}
		res.Deliveries++
		if m.depth > depth[m.To] {
			depth[m.To] = m.depth
		}
		enqueue(m.To, machines[m.To].Deliver(m))
		note(m.To)
		if waiting == 0 {
			return res, nil
		}
	}
	if waiting == 0 {
		return res, nil
	}
	return res, fmt.Errorf("%w: after %d deliveries (pending %d)", ErrNotDecided, res.Deliveries, len(pending))
}

// FIFO delivers messages in send order.
type FIFO struct{}

// Next implements Scheduler.
func (FIFO) Next([]Message) int { return 0 }

// Random delivers a uniformly random pending message — the usual model for
// "benign" asynchrony.
type Random struct {
	Rng *rand.Rand
}

// Next implements Scheduler.
func (s Random) Next(pending []Message) int { return s.Rng.Intn(len(pending)) }

// Starve is an adversarial scheduler: messages from or to the victim
// parties are deferred as long as anything else is deliverable, modeling a
// network that delays specific links arbitrarily (but still eventually
// delivers, as the asynchronous model requires).
type Starve struct {
	Victims map[PartyID]bool
}

// Next implements Scheduler.
func (s Starve) Next(pending []Message) int {
	for i, m := range pending {
		if !s.Victims[m.From] && !s.Victims[m.To] {
			return i
		}
	}
	return 0 // only starved traffic remains: deliver it (eventual delivery)
}

// LIFO delivers the newest message first — an adversarial order that
// reorders causally unrelated traffic maximally.
type LIFO struct{}

// Next implements Scheduler.
func (LIFO) Next(pending []Message) int { return len(pending) - 1 }
