// Package pathaa implements the paper's known-path protocol, the one
// Section 5 step every TreeAA execution ends in.
//
// Section 4: AA when the input space is a labeled path P — each party maps
// its input vertex v_i to its position i, joins RealAA(1) with input i, and
// outputs v_closestInt(j). Remark 1 makes the output valid, Remark 2 makes
// the outputs 1-close.
//
// Section 5: AA on a tree T when every party holds a path P intersecting
// the honest inputs' convex hull — each party first projects its input onto
// P (Lemma 1 keeps projections in the hull) and then proceeds as on a path.
// TreeAA's projection phase is this protocol on PathsFinder's output, where
// the honest paths agree up to one trailing edge: a party holding the
// shorter one that sees closestInt(j) > k outputs its last vertex v_k
// (Theorem 4, Figure 5).
//
// Machine is a thin, deterministic reduction to realaa.Machine; the only
// protocol state beyond RealAA is the party's path.
package pathaa

import (
	"fmt"

	"treeaa/internal/realaa"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Config parameterizes a Machine.
type Config struct {
	// Tree is the input space (known to all parties).
	Tree *tree.Tree
	// Path is the party's path, as a vertex sequence, used as given: it is
	// neither validated nor copied. Nil means Tree.CanonicalDiameterPath(),
	// the whole input space numbered per Section 4 when Tree is a path.
	Path []tree.VertexID
	// N, T, ID are the party parameters (T < N/3).
	N, T int
	ID   sim.PartyID
	// Input is the party's input vertex (anywhere in Tree; it is projected
	// onto Path).
	Input tree.VertexID
	// Tag disambiguates concurrent executions; defaults to "pathaa".
	Tag string
	// StartRound is the global round the protocol starts in (default 1).
	StartRound int
}

// Machine runs the Section 5 protocol (which subsumes Section 4 when Path
// spans the whole tree). Its output is a tree.VertexID on Path.
type Machine struct {
	path []tree.VertexID
	real *realaa.Machine
	out  tree.VertexID
	done bool
}

var _ sim.LaneReader = (*Machine)(nil)

// NewMachine builds the machine. The party's RealAA input is the 1-based
// position of proj_P(Input) on Path, and RealAA(1) runs on the public range
// D(T), so parties whose paths differ by a trailing edge share one schedule.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("pathaa: nil tree")
	}
	if !cfg.Tree.Valid(cfg.Input) {
		return nil, fmt.Errorf("pathaa: invalid input vertex %d", int(cfg.Input))
	}
	if cfg.Path == nil {
		cfg.Path = cfg.Tree.CanonicalDiameterPath()
	}
	if cfg.Tag == "" {
		cfg.Tag = "pathaa"
	}
	if cfg.StartRound == 0 {
		cfg.StartRound = 1
	}
	idx, _ := cfg.Tree.ProjectOntoPath(cfg.Path, cfg.Input)
	d, _, _ := cfg.Tree.Diameter()
	real, err := realaa.NewMachine(realaa.Config{
		N: cfg.N, T: cfg.T, ID: cfg.ID, Tag: cfg.Tag,
		Iterations: realaa.Iterations(cfg.T, float64(d), 1),
		StartRound: cfg.StartRound,
		Input:      float64(idx + 1), // paper's 1-based position
		Eps:        1,
	})
	if err != nil {
		return nil, fmt.Errorf("pathaa: %w", err)
	}
	return &Machine{path: cfg.Path, real: real}, nil
}

// VertexAt applies the paper's line 6 to a RealAA output j on a path of k
// vertices: it returns v_closestInt(j), falling back to the path's last
// vertex when closestInt(j) > k — the party holds the shorter of the two
// honest paths (Figure 5) and cannot tell which neighbor extends the longer
// one. fellBack reports that case. Remark 1 rules out closestInt(j) < 1
// against <= t faults; that clamp to v_1 is defensive only.
func VertexAt(path []tree.VertexID, j float64) (v tree.VertexID, fellBack bool) {
	pos := realaa.ClosestInt(j)
	switch {
	case pos > len(path):
		return path[len(path)-1], true
	case pos < 1:
		return path[0], false
	default:
		return path[pos-1], false
	}
}

// RealAA exposes the inner RealAA execution for invariant probes (history,
// suspicion and exclusion sets); treat it as read-only.
func (m *Machine) RealAA() *realaa.Machine { return m.real }

// Step implements sim.Machine by delegating to the inner RealAA execution
// and decoding its real-valued output to a vertex. The inner machine keeps
// stepping after the decision: one taken early (realaa.Config.Eps) leaves
// the schedule running for the parties still waiting.
func (m *Machine) Step(r int, inbox []sim.Message) []sim.Message { return m.StepLane(r, inbox, nil) }

// StepLane implements sim.LaneReader: Step, with the lane forwarded to the
// inner RealAA execution.
func (m *Machine) StepLane(r int, inbox []sim.Message, lane *sim.Lane) []sim.Message {
	out := m.real.StepLane(r, inbox, lane)
	if j, ok := m.real.Output(); ok && !m.done {
		m.out, _ = VertexAt(m.path, j.(float64))
		m.done = true
	}
	return out
}

// Output implements sim.Machine; the value is a tree.VertexID.
func (m *Machine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.out, true
}

// Run executes the Section 5 protocol for all parties over the given tree
// and path with the given inputs (inputs[i] is party i's input vertex) under
// adv, and returns the honest outputs.
func Run(t *tree.Tree, path []tree.VertexID, n, tc int, inputs []tree.VertexID, adv sim.Adversary) (map[sim.PartyID]tree.VertexID, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("pathaa: %d inputs for n = %d", len(inputs), n)
	}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{
			Tree: t, Path: path, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i],
		})
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	d, _, _ := t.Diameter()
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: realaa.Rounds(tc, float64(d), 1) + 2, Adversary: adv}, machines)
	if err != nil {
		return nil, err
	}
	out := make(map[sim.PartyID]tree.VertexID, len(res.Outputs))
	for p, v := range res.Outputs {
		out[p] = v.(tree.VertexID)
	}
	return out, nil
}
