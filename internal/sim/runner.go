package sim

import "fmt"

// Run executes machines under cfg with the sequential lock-step driver.
// machines must have length cfg.N; entries at corrupted slots are ignored
// once corrupted. Run returns an error when the configuration is invalid,
// the adversary oversteps its powers, or honest machines fail to terminate
// within cfg.MaxRounds.
func Run(cfg Config, machines []Machine) (*Result, error) {
	return run(cfg, machines, stepSequential)
}

// stepper computes one round of honest outboxes, writing machines[p]'s raw
// outbox into raw[p] for every honest p. It exists so that the sequential
// and concurrent drivers share every other line of the loop.
type stepper func(r int, honest []PartyID, machines []Machine, inboxes, raw [][]Message)

func stepSequential(r int, honest []PartyID, machines []Machine, inboxes, raw [][]Message) {
	for _, p := range honest {
		raw[p] = machines[p].Step(r, inboxes[p])
	}
}

func run(cfg Config, machines []Machine, step stepper) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	e := newEngine(cfg)
	corrupted := make(map[PartyID]bool)
	omissionCount := 0 // omission parties not (yet) Byzantine
	var filter OutboxFilter
	if cfg.Adversary != nil {
		for _, p := range cfg.Adversary.Initial() {
			if err := e.checkParty(p, "corrupted party"); err != nil {
				return nil, err
			}
			corrupted[p] = true
			e.corrupted[p] = true
		}
		if f, ok := cfg.Adversary.(OutboxFilter); ok {
			filter = f
			for _, p := range f.OmissionParties() {
				if err := e.checkParty(p, "omission party"); err != nil {
					return nil, err
				}
				if corrupted[p] {
					return nil, fmt.Errorf("sim: party %d is both Byzantine and omission-faulty", p)
				}
				e.omission[p] = true
				omissionCount++
			}
		}
		if len(corrupted)+omissionCount > cfg.MaxCorrupt {
			return nil, fmt.Errorf("%w: %d initial corruptions, budget %d",
				ErrBudgetExceeded, len(corrupted)+omissionCount, cfg.MaxCorrupt)
		}
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
		step(r, e.honest, machines, e.inboxes, e.raw)

		// The rushing adversary moves after seeing the round's honest
		// traffic; this block only builds that view and applies the
		// corruptions it answers with — delivery is the one loop below.
		var advOut []Message
		var more []PartyID
		if cfg.Adversary != nil {
			if err := e.view(r, filter); err != nil {
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
				if e.omission[p] { // Byzantine subsumes omission: count it once
					e.omission[p] = false
					omissionCount--
				}
				corrupted[p] = true
				e.corrupted[p] = true
			}
			if len(corrupted)+omissionCount > cfg.MaxCorrupt {
				return nil, fmt.Errorf("%w: %d corruptions at round %d, budget %d",
					ErrBudgetExceeded, len(corrupted)+omissionCount, r, cfg.MaxCorrupt)
			}
			for _, m := range advOut {
				if !corrupted[m.From] {
					return nil, fmt.Errorf("%w: message from party %d at round %d", ErrForgedSender, m.From, r)
				}
			}
		}

		// Honest outboxes first, then the adversary's, sharing one
		// rate-limit ledger. Skipping a party corrupted this round is the
		// retraction of its just-produced messages.
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
