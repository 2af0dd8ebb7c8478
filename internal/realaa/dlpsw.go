package realaa

import (
	"fmt"
	"sort"

	"treeaa/internal/sim"
)

// DLPSWIterations returns the iteration budget for the classic trimmed-
// midpoint protocol: each iteration halves the honest range in the worst
// case, so ceil(log2(D/eps)) iterations guarantee eps-agreement.
func DLPSWIterations(d, eps float64) int {
	if eps <= 0 {
		panic("realaa: eps must be positive")
	}
	iters := 0
	for r := d; r > eps; r /= 2 {
		iters++
	}
	return iters
}

// DLPSWMsg is the per-iteration broadcast of the DLPSW baseline. It is
// exported so that adversary strategies can craft it.
type DLPSWMsg struct {
	Tag  string
	Iter int
	Val  float64
}

// Size implements sim.Sizer with the exact internal/wire encoded length.
func (m DLPSWMsg) Size() int {
	return 2 + sim.UvarintLen(uint64(len(m.Tag))) + len(m.Tag) + sim.UvarintLen(uint64(m.Iter)) + 8
}

// DLPSW is the classic one-round-per-iteration AA protocol in the style of
// Dolev et al. [12]: broadcast the current value, discard the t lowest and t
// highest values received (substituting one's own value for missing
// senders), and adopt the midpoint of the remaining extremes. It satisfies
// Validity and converges by a factor of at most 1/2 per iteration, but a
// Byzantine party can equivocate in *every* iteration without being
// detected — the ablation contrast with Machine's detect-and-ignore.
type DLPSW struct {
	cfg     Config
	val     float64
	history []float64
	done    bool
}

var _ sim.Machine = (*DLPSW)(nil)

// NewDLPSW returns a DLPSW machine. Config.Iterations should come from
// DLPSWIterations.
func NewDLPSW(cfg Config) (*DLPSW, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DLPSW{cfg: cfg, val: cfg.Input}, nil
}

// Value returns the current value.
func (m *DLPSW) Value() float64 { return m.val }

// History returns the value held after each completed iteration (a copy).
func (m *DLPSW) History() []float64 {
	out := make([]float64, len(m.history))
	copy(out, m.history)
	return out
}

// Step implements sim.Machine: relative round k sends iteration k's value
// and processes iteration k-1's values.
func (m *DLPSW) Step(r int, inbox []sim.Message) []sim.Message {
	rr := r - m.cfg.StartRound + 1
	if rr < 1 || m.done {
		return nil
	}
	if rr > 1 && rr <= m.cfg.Iterations+1 {
		m.finishIteration(rr-1, inbox)
	}
	if rr > m.cfg.Iterations {
		m.done = true
		return nil
	}
	return []sim.Message{{To: sim.Broadcast, Payload: DLPSWMsg{Tag: m.cfg.Tag, Iter: rr, Val: m.val}}}
}

func (m *DLPSW) finishIteration(iter int, inbox []sim.Message) {
	got := make(map[sim.PartyID]float64, m.cfg.N)
	for _, msg := range inbox {
		p, ok := msg.Payload.(DLPSWMsg)
		if !ok || p.Tag != m.cfg.Tag || p.Iter != iter {
			continue
		}
		if _, dup := got[msg.From]; !dup {
			got[msg.From] = p.Val
		}
	}
	vals := make([]float64, 0, m.cfg.N)
	for p := sim.PartyID(0); int(p) < m.cfg.N; p++ {
		if v, ok := got[p]; ok {
			vals = append(vals, v)
		} else {
			vals = append(vals, m.val) // silent senders count as one's own value
		}
	}
	sort.Float64s(vals)
	trimmed := vals[m.cfg.T : len(vals)-m.cfg.T]
	m.val = (trimmed[0] + trimmed[len(trimmed)-1]) / 2
	m.history = append(m.history, m.val)
}

// Output implements sim.Machine.
func (m *DLPSW) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.val, true
}

// RunReal is a convenience driver: it runs n parties with the given inputs
// under adv (may be nil) using the RealAA machine when detect is true or the
// DLPSW baseline otherwise, with iteration budget derived from the input
// spread d and eps. It returns the honest outputs and per-party histories.
func RunReal(n, t int, inputs []float64, d, eps float64, detect bool, adv sim.Adversary) (map[sim.PartyID]float64, map[sim.PartyID][]float64, error) {
	if len(inputs) != n {
		return nil, nil, fmt.Errorf("realaa: %d inputs for n = %d", len(inputs), n)
	}
	machines := make([]sim.Machine, n)
	histories := make(map[sim.PartyID][]float64, n)
	var rounds int
	for i := 0; i < n; i++ {
		cfg := Config{N: n, T: t, ID: sim.PartyID(i), Tag: "real", StartRound: 1, Input: inputs[i]}
		if detect {
			cfg.Iterations = Iterations(t, d, eps)
			mach, err := NewMachine(cfg)
			if err != nil {
				return nil, nil, err
			}
			machines[i] = mach
			rounds = 3*cfg.Iterations + 1
		} else {
			cfg.Iterations = DLPSWIterations(d, eps)
			mach, err := NewDLPSW(cfg)
			if err != nil {
				return nil, nil, err
			}
			machines[i] = mach
			rounds = cfg.Iterations + 1
		}
	}
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: t, MaxRounds: rounds + 1, Adversary: adv}, machines)
	if err != nil {
		return nil, nil, err
	}
	outputs := make(map[sim.PartyID]float64, len(res.Outputs))
	for p, v := range res.Outputs {
		outputs[p] = v.(float64)
	}
	for p := range res.Outputs {
		switch mach := machines[p].(type) {
		case *Machine:
			histories[p] = mach.History()
		case *DLPSW:
			histories[p] = mach.History()
		}
	}
	return outputs, histories, nil
}
