package sim

import (
	"fmt"
	"slices"
)

// Run executes machines under cfg with the sequential lock-step driver.
// machines must have length cfg.N; entries at corrupted slots are ignored
// once corrupted, and an omission party's runs under Omit (in a copy of the
// slice). Run returns an error when the configuration is invalid,
// the adversary oversteps its powers, or honest machines fail to terminate
// within cfg.MaxRounds.
func Run(cfg Config, machines []Machine) (*Result, error) {
	return run(cfg, machines, stepSequential)
}

// stepper computes one round of honest outboxes, writing machines[p]'s raw
// outbox into e.raw[p] for every honest p. It exists so that the sequential
// and concurrent drivers share every other line of the loop.
type stepper func(r int, e *engine, machines []Machine)

// stepSequential steps the honest parties in ascending order, handing the
// lane's digest store to those reading the lane (LaneReader).
func stepSequential(r int, e *engine, machines []Machine) {
	for _, p := range e.honest {
		lane := &e.digests
		if !e.readsLane(p) {
			lane = nil
		}
		e.raw[p] = StepLane(machines[p], r, e.inboxes[p], lane)
	}
}

// Faults validates cfg.Adversary's fault sets and returns them, each
// ascending and deduplicated: the initially corrupted parties and the
// omission parties. Every id lies in [0, N), no party is both, and together
// they fit MaxCorrupt. Run, RunConcurrent and the TCP fabrics seat an
// execution from them.
func Faults(cfg Config) (corrupted, omission []PartyID, err error) {
	if cfg.Adversary == nil {
		return nil, nil, nil
	}
	corrupted = slices.Clone(cfg.Adversary.Initial())
	if f, ok := cfg.Adversary.(OutboxFilter); ok {
		omission = slices.Clone(f.OmissionParties())
	}
	for i, p := range slices.Concat(corrupted, omission) {
		switch {
		case p < 0 || int(p) >= cfg.N:
			return nil, nil, fmt.Errorf("sim: faulty party %d out of range [0, %d)", p, cfg.N)
		case i >= len(corrupted) && slices.Contains(corrupted, p):
			return nil, nil, fmt.Errorf("sim: party %d is both Byzantine and omission-faulty", p)
		}
	}
	slices.Sort(corrupted)
	slices.Sort(omission)
	corrupted, omission = slices.Compact(corrupted), slices.Compact(omission)
	if k := len(corrupted) + len(omission); k > cfg.MaxCorrupt {
		return nil, nil, fmt.Errorf("%w: %d initial corruptions, budget %d", ErrBudgetExceeded, k, cfg.MaxCorrupt)
	}
	return corrupted, omission, nil
}

func run(cfg Config, machines []Machine, step stepper) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	byz, omission, err := Faults(cfg)
	if err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	defer e.digests.reset() // a reader that kept the store finds it empty
	corrupted := make(map[PartyID]bool)
	for _, p := range byz {
		corrupted[p], e.corrupted[p] = true, true
	}
	var omitters []*omitter
	if len(omission) > 0 {
		machines = slices.Clone(machines)
	}
	for _, p := range omission {
		o := &omitter{Machine: machines[p], f: cfg.Adversary.(OutboxFilter), p: p, n: cfg.N}
		machines[p], omitters = o, append(omitters, o)
	}
	res := &Result{Outputs: make(map[PartyID]any), Corrupted: corrupted}
	done := make([]bool, cfg.N)
	// corruptInbox is rebuilt (not reallocated) each round for the
	// adversary; like the inboxes it references, it is only valid for the
	// duration of Adversary.Step.
	var corruptInbox map[PartyID][]Message
	if cfg.Adversary != nil {
		corruptInbox = make(map[PartyID][]Message, len(corrupted)+1)
	}

	for r := 1; r <= cfg.MaxRounds; r++ {
		e.open() // deliver round r-1's traffic
		e.refreshHonest()
		step(r, e, machines)
		for _, o := range omitters {
			if o.err != nil {
				return nil, o.err
			}
		}

		// The rushing adversary moves after seeing the round's honest
		// traffic; this block only builds that view and applies the
		// corruptions it answers with — delivery is the one loop below.
		var advOut []Message
		var more []PartyID
		if cfg.Adversary != nil {
			if err := e.view(r); err != nil {
				return nil, err
			}
			clear(corruptInbox)
			for p := range corrupted {
				corruptInbox[p] = e.inboxes[p]
			}
			advOut, more = cfg.Adversary.Step(r, e.honestOut, corruptInbox)
			for _, p := range more {
				if err := e.checkParty(p, "corrupted party"); err != nil {
					return nil, err
				}
				// Byzantine subsumes omission: count the party once.
				omission = slices.DeleteFunc(omission, func(q PartyID) bool { return q == p })
				corrupted[p] = true
				e.corrupted[p] = true
			}
			if len(corrupted)+len(omission) > cfg.MaxCorrupt {
				return nil, fmt.Errorf("%w: %d corruptions at round %d, budget %d",
					ErrBudgetExceeded, len(corrupted)+len(omission), r, cfg.MaxCorrupt)
			}
			for _, m := range advOut {
				if !corrupted[m.From] {
					return nil, fmt.Errorf("%w: message from party %d at round %d", ErrForgedSender, m.From, r)
				}
			}
		}

		// Honest outboxes first, then the adversary's. Skipping a party
		// corrupted this round is the retraction of its just-produced
		// messages.
		e.msgs, e.bytes = 0, 0
		for _, p := range e.honest {
			if e.corrupted[p] {
				continue
			}
			for _, m := range e.raw[p] {
				m.From, m.Round = p, r
				if err := e.route(m); err != nil {
					return nil, err
				}
			}
		}
		for _, m := range advOut {
			m.Round = r
			if err := e.route(m); err != nil {
				return nil, err
			}
		}
		if len(more) > 0 {
			e.refreshHonest()
		}
		res.Messages += e.msgs
		res.Bytes += e.bytes
		res.Rounds = r

		var newlyDone []PartyID
		allDone := true
		for _, p := range e.honest {
			if done[p] {
				continue
			}
			if v, ok := machines[p].Output(); ok {
				done[p] = true
				res.Outputs[p] = v
				newlyDone = append(newlyDone, p)
			} else {
				allDone = false
			}
		}
		if cfg.Trace != nil {
			cfg.Trace.Rounds = append(cfg.Trace.Rounds, TraceRound{
				Round: r, Messages: e.msgs, Bytes: e.bytes, NewlyDone: newlyDone,
			})
		}
		if allDone {
			return res, nil
		}
		e.rotate()
	}
	return res, fmt.Errorf("%w: after %d rounds", ErrNotDone, cfg.MaxRounds)
}
