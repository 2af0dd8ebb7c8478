// Package pathsfinder implements the paper's PathsFinder subprotocol
// (Section 6): it lets the honest parties *approximately* agree on a path
// that intersects their inputs' convex hull — avoiding the t+1-round cost of
// exact Byzantine Agreement on a path.
//
// Each party deterministically flattens the rooted input tree into the DFS
// visit list L (tree.ListConstruction), joins RealAA(1) with the first index
// of its input vertex in L, and returns the path from the root to
// L_closestInt(j). Lemma 4 gives the two guarantees TreeAA needs:
//
//  1. every returned path intersects the honest inputs' convex hull
//     (via Lemma 3: all of [i_min, i_max] maps to root paths through the
//     lowest common ancestor of the extreme honest list entries);
//  2. the returned paths are all equal, except that some may extend the
//     others by exactly one trailing edge (RealAA's outputs are 1-close, and
//     consecutive list entries are adjacent vertices).
package pathsfinder

import (
	"fmt"

	"treeaa/internal/realaa"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Rounds returns R_PathsFinder for tree tr under fault budget t: the paper
// uses R_RealAA(2·|V(T)|, 1); the list indices span [1, |L|] with
// |L| <= 2|V|, so this budget is always sufficient.
func Rounds(tr *tree.Tree, t int) int { return 3 * Iterations(tr, t) }

// Iterations is Rounds expressed in 3-round RealAA iterations.
func Iterations(tr *tree.Tree, t int) int {
	return realaa.Iterations(t, float64(2*tr.NumVertices()), 1)
}

// Config parameterizes a Machine.
type Config struct {
	// Tree is the input space; Root must be the commonly agreed root
	// (TreeAA uses the lowest-label vertex, tree.Tree.Root).
	Tree *tree.Tree
	Root tree.VertexID
	// N, T, ID are the party parameters (T < N/3).
	N, T int
	ID   sim.PartyID
	// Input is the party's input vertex.
	Input tree.VertexID
	// Tag disambiguates concurrent executions; defaults to "pathsfinder".
	Tag string
	// StartRound is the global starting round (default 1).
	StartRound int
}

// Machine is one party's PathsFinder execution. Its output is the path
// P(root, L_closestInt(j)) as a []tree.VertexID beginning at the root.
type Machine struct {
	cfg  Config
	list *tree.EulerList
	real *realaa.Machine
	out  []tree.VertexID
	done bool
}

var _ sim.LaneReader = (*Machine)(nil)

// NewMachine validates cfg, computes the shared list representation and
// prepares the inner RealAA(1) execution with input min L(v_IN).
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("pathsfinder: nil tree")
	}
	if !cfg.Tree.Valid(cfg.Input) {
		return nil, fmt.Errorf("pathsfinder: invalid input vertex %d", int(cfg.Input))
	}
	if cfg.Tag == "" {
		cfg.Tag = "pathsfinder"
	}
	if cfg.StartRound == 0 {
		cfg.StartRound = 1
	}
	list, err := tree.ListConstruction(cfg.Tree, cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("pathsfinder: %w", err)
	}
	real, err := realaa.NewMachine(realaa.Config{
		N: cfg.N, T: cfg.T, ID: cfg.ID, Tag: cfg.Tag,
		Iterations: Iterations(cfg.Tree, cfg.T),
		StartRound: cfg.StartRound,
		Input:      float64(list.FirstIndex(cfg.Input)),
	})
	if err != nil {
		return nil, fmt.Errorf("pathsfinder: %w", err)
	}
	return &Machine{cfg: cfg, list: list, real: real}, nil
}

// List exposes the shared list representation (for TreeAA and tests).
func (m *Machine) List() *tree.EulerList { return m.list }

// RealAA exposes the inner RealAA execution for invariant probes (history,
// suspicion and exclusion sets); treat it as read-only.
func (m *Machine) RealAA() *realaa.Machine { return m.real }

// ClampIndex decodes a RealAA output j to a valid list index. Remark 1 keeps
// closestInt(j) within the range of honest indices, hence within [1, |L|];
// the clamping to the list ends is defensive only, and exported so that
// tests can exercise the out-of-range decode directly.
func ClampIndex(list *tree.EulerList, j float64) int {
	idx := realaa.ClosestInt(j)
	if idx < 1 {
		idx = 1
	}
	if idx > list.Len() {
		idx = list.Len()
	}
	return idx
}

// Step implements sim.Machine.
func (m *Machine) Step(r int, inbox []sim.Message) []sim.Message { return m.StepLane(r, inbox, nil) }

// StepLane implements sim.LaneReader: Step, with the lane forwarded to the
// inner RealAA execution.
func (m *Machine) StepLane(r int, inbox []sim.Message, lane *sim.Lane) []sim.Message {
	if m.done {
		return nil
	}
	out := m.real.StepLane(r, inbox, lane)
	if j, ok := m.real.Output(); ok {
		idx := ClampIndex(m.list, j.(float64))
		p, err := m.list.PathFromRoot(idx)
		if err != nil {
			// Unreachable after clamping; fall back to the root itself so
			// the machine still terminates.
			p = []tree.VertexID{m.cfg.Root}
		}
		m.out = p
		m.done = true
	}
	return out
}

// Output implements sim.Machine; the value is a []tree.VertexID path from
// the root.
func (m *Machine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.out, true
}

// Run executes PathsFinder for all parties and returns the honest parties'
// paths.
func Run(t *tree.Tree, root tree.VertexID, n, tc int, inputs []tree.VertexID, adv sim.Adversary) (map[sim.PartyID][]tree.VertexID, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("pathsfinder: %d inputs for n = %d", len(inputs), n)
	}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{Tree: t, Root: root, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: Rounds(t, tc) + 2, Adversary: adv}, machines)
	if err != nil {
		return nil, err
	}
	out := make(map[sim.PartyID][]tree.VertexID, len(res.Outputs))
	for p, v := range res.Outputs {
		out[p] = v.([]tree.VertexID)
	}
	return out, nil
}
