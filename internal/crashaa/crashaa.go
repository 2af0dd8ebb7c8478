// Package crashaa implements Approximate Agreement under *crash* faults —
// the weaker failure model Fekete's lower-bound papers ([18, 19], the
// source of the paper's Theorem 1) analyze alongside Byzantine failures.
//
// In the crash model a faulty party follows the protocol until it crashes;
// in its crash round it may deliver its (honest) broadcast to an arbitrary
// subset of parties, and is silent afterwards. Because every delivered
// value is honestly generated, no trimming is needed: each party averages
// whatever it received, which keeps values inside the honest range
// (Validity is free) and tolerates any t < n crashes.
//
// Divergence arises only from partial crash rounds: if c_r parties crash
// partially in round r, two views differ in at most c_r of at least n-t
// entries, so the honest range contracts by roughly c_r/(n-t) that round —
// the same Σc_r <= t budget structure as the Byzantine bound, with n-t in
// place of n+t. The package's tests and experiment E9 measure exactly that
// shape.
package crashaa

import (
	"fmt"

	"treeaa/internal/sim"
)

// ValueMsg is the per-round broadcast.
type ValueMsg struct {
	Tag  string
	Iter int
	Val  float64
}

// Size implements sim.Sizer with the exact internal/wire encoded length.
func (m ValueMsg) Size() int {
	return 2 + sim.UvarintLen(uint64(len(m.Tag))) + len(m.Tag) + sim.UvarintLen(uint64(m.Iter)) + 8
}

// Config parameterizes a crash-model machine.
type Config struct {
	// N is the number of parties; any number may crash.
	N int
	// ID is the party identity.
	ID sim.PartyID
	// Iterations is the fixed schedule length (one round each).
	Iterations int
	// Input is the party's input value.
	Input float64
	// Tag defaults to "crashaa".
	Tag string
}

// Machine is one party's crash-model AA execution (mean update).
type Machine struct {
	cfg     Config
	val     float64
	history []float64
	done    bool
}

var _ sim.Machine = (*Machine)(nil)

// NewMachine validates cfg and returns the machine.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("crashaa: N = %d", cfg.N)
	}
	if cfg.ID < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("crashaa: ID %d out of range", cfg.ID)
	}
	if cfg.Iterations < 0 {
		return nil, fmt.Errorf("crashaa: Iterations = %d", cfg.Iterations)
	}
	if cfg.Tag == "" {
		cfg.Tag = "crashaa"
	}
	return &Machine{cfg: cfg, val: cfg.Input}, nil
}

// Value returns the current value.
func (m *Machine) Value() float64 { return m.val }

// History returns the value after each completed iteration (a copy).
func (m *Machine) History() []float64 {
	out := make([]float64, len(m.history))
	copy(out, m.history)
	return out
}

// Step implements sim.Machine: one iteration per round; the mean of the
// received values (own value included via self-delivery of the broadcast).
func (m *Machine) Step(r int, inbox []sim.Message) []sim.Message {
	if m.done {
		return nil
	}
	if r > 1 && r <= m.cfg.Iterations+1 {
		m.finishIteration(r-1, inbox)
	}
	if r > m.cfg.Iterations {
		m.done = true
		return nil
	}
	return []sim.Message{{To: sim.Broadcast, Payload: ValueMsg{Tag: m.cfg.Tag, Iter: r, Val: m.val}}}
}

func (m *Machine) finishIteration(iter int, inbox []sim.Message) {
	sum, count := 0.0, 0
	seen := make(map[sim.PartyID]bool, m.cfg.N)
	for _, msg := range inbox {
		p, ok := msg.Payload.(ValueMsg)
		if !ok || p.Tag != m.cfg.Tag || p.Iter != iter || seen[msg.From] {
			continue
		}
		seen[msg.From] = true
		sum += p.Val
		count++
	}
	if count > 0 {
		m.val = sum / float64(count)
	}
	m.history = append(m.history, m.val)
}

// Output implements sim.Machine.
func (m *Machine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.val, true
}

// PartialCrash is the crash-model adversary: at round Rounds[k] it crashes
// IDs[k] *partially* — the victim's retracted round broadcast (observed via
// rushing before retraction) is re-delivered to only the recipients with
// id < Cutoffs[k] (at most n) — and keeps the victim silent afterwards. This
// realizes the executions behind Fekete's crash-fault bound: each crash
// splits the survivors' views in one entry.
type PartialCrash struct {
	IDs     []sim.PartyID
	Rounds  []int
	Cutoffs []int

	crashed map[sim.PartyID]bool
}

var _ sim.Adversary = (*PartialCrash)(nil)

// Initial implements sim.Adversary.
func (a *PartialCrash) Initial() []sim.PartyID { return nil }

// Step implements sim.Adversary.
func (a *PartialCrash) Step(r int, honestOut []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if a.crashed == nil {
		a.crashed = make(map[sim.PartyID]bool)
	}
	var msgs []sim.Message
	var more []sim.PartyID
	for k, id := range a.IDs {
		if a.crashed[id] || r < a.Rounds[k] {
			continue
		}
		a.crashed[id] = true
		more = append(more, id)
		// Re-deliver the victim's own (honest) round broadcast to the
		// chosen prefix of recipients — a faithful partial send, never a
		// fabricated value. The view holds a broadcast once; its prefix is
		// recipients 0..cutoff-1.
		for _, m := range honestOut {
			if m.From != id {
				continue
			}
			if m.To == sim.Broadcast {
				for to := 0; to < a.Cutoffs[k]; to++ {
					msgs = append(msgs, sim.Message{From: id, To: sim.PartyID(to), Payload: m.Payload})
				}
			} else if int(m.To) < a.Cutoffs[k] {
				msgs = append(msgs, sim.Message{From: id, To: m.To, Payload: m.Payload})
			}
		}
	}
	return msgs, more
}

// Run executes the crash-model protocol. iterations should cover the crash
// budget plus the post-crash convergence (one clean iteration after the
// last crash suffices for exact agreement in this model).
func Run(n int, inputs []float64, iterations int, adv sim.Adversary) (map[sim.PartyID]float64, map[sim.PartyID][]float64, error) {
	if len(inputs) != n {
		return nil, nil, fmt.Errorf("crashaa: %d inputs for n = %d", len(inputs), n)
	}
	machines := make([]sim.Machine, n)
	typed := make([]*Machine, n)
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{N: n, ID: sim.PartyID(i), Iterations: iterations, Input: inputs[i]})
		if err != nil {
			return nil, nil, err
		}
		machines[i] = m
		typed[i] = m
	}
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: n - 1, MaxRounds: iterations + 2, Adversary: adv}, machines)
	if err != nil {
		return nil, nil, err
	}
	outputs := make(map[sim.PartyID]float64, len(res.Outputs))
	histories := make(map[sim.PartyID][]float64, len(res.Outputs))
	for p, v := range res.Outputs {
		outputs[p] = v.(float64)
		histories[p] = typed[p].History()
	}
	return outputs, histories, nil
}
