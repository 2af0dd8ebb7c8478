// Package pathaa implements the paper's warm-up protocols.
//
// Section 4: AA when the input space is a labeled path P — each party maps
// its input vertex v_i to its position i, joins RealAA(1) with input i, and
// outputs v_closestInt(j). Remark 1 makes the output valid, Remark 2 makes
// the outputs 1-close.
//
// Section 5: AA on a tree T when all parties know a path P intersecting the
// honest inputs' convex hull — each party first projects its input onto P
// (Lemma 1 keeps projections in the hull) and then proceeds as on a path.
//
// Both are thin, deterministic reductions to realaa.Machine; the only
// protocol state beyond RealAA is the public vertex numbering of P.
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
	// Path is the commonly known path, as a vertex sequence. For the pure
	// path protocol of Section 4 it spans the whole input space.
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
	cfg  Config
	real *realaa.Machine
	out  tree.VertexID
	done bool
}

var _ sim.LaneReader = (*Machine)(nil)

// Rounds returns the fixed communication-round budget of the protocol for a
// path of k vertices under fault budget t: RealAA(1) on inputs within [1, k].
func Rounds(k, t int) int { return realaa.Rounds(t, float64(k-1), 1) }

// CanonicalOrient returns the path oriented per the paper's Section 4
// convention: v_1 is the endpoint with the lexicographically lower label.
// Parties that derive the same path independently (rather than receiving it
// as shared input) must orient it this way so that their position numbering
// agrees. The input slice is not modified.
func CanonicalOrient(t *tree.Tree, p []tree.VertexID) []tree.VertexID {
	out := make([]tree.VertexID, len(p))
	copy(out, p)
	if len(out) > 1 && t.Label(out[0]) > t.Label(out[len(out)-1]) {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// NewMachine validates cfg and builds the machine. The party's RealAA input
// is the 1-based position of proj_P(Input) on Path.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("pathaa: nil tree")
	}
	if err := cfg.Tree.ValidatePath(cfg.Path); err != nil {
		return nil, fmt.Errorf("pathaa: invalid path: %w", err)
	}
	// Section 4's convention: all parties number positions from the
	// lexicographically lower endpoint, so independently derived paths
	// agree regardless of traversal direction.
	cfg.Path = CanonicalOrient(cfg.Tree, cfg.Path)
	return newMachine(cfg)
}

// NewSpanning builds the pure Section 4 machine for an input space that is
// itself a path: cfg.Path is not consulted, the machine numbers positions
// along Tree.CanonicalDiameterPath() — the Tree's own slice, shared
// read-only by all n parties, so a machine costs nothing per vertex.
func NewSpanning(cfg Config) (*Machine, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("pathaa: nil tree")
	}
	if !cfg.Tree.IsPath() {
		return nil, fmt.Errorf("pathaa: input space is not a path")
	}
	cfg.Path = cfg.Tree.CanonicalDiameterPath()
	return newMachine(cfg)
}

// newMachine builds the machine on a valid, canonically oriented cfg.Path,
// which it keeps without copying.
func newMachine(cfg Config) (*Machine, error) {
	if !cfg.Tree.Valid(cfg.Input) {
		return nil, fmt.Errorf("pathaa: invalid input vertex %d", int(cfg.Input))
	}
	if cfg.Tag == "" {
		cfg.Tag = "pathaa"
	}
	if cfg.StartRound == 0 {
		cfg.StartRound = 1
	}
	idx, _ := cfg.Tree.ProjectOntoPath(cfg.Path, cfg.Input)
	real, err := realaa.NewMachine(realaa.Config{
		N: cfg.N, T: cfg.T, ID: cfg.ID, Tag: cfg.Tag,
		Iterations: realaa.Iterations(cfg.T, float64(len(cfg.Path)-1), 1),
		StartRound: cfg.StartRound,
		Input:      float64(idx + 1), // paper's 1-based position
		Eps:        1,
	})
	if err != nil {
		return nil, fmt.Errorf("pathaa: %w", err)
	}
	return &Machine{cfg: cfg, real: real}, nil
}

// VertexAt decodes a RealAA output j to the vertex v_closestInt(j) of the
// (canonically oriented) path. Remark 1 keeps closestInt(j) within the
// honest positions' range, which is within [1, len(path)]; the clamping to
// the path ends is defensive only, and exported so that tests can exercise
// the out-of-range decode directly.
func VertexAt(path []tree.VertexID, j float64) tree.VertexID {
	pos := realaa.ClosestInt(j)
	if pos < 1 {
		pos = 1
	}
	if pos > len(path) {
		pos = len(path)
	}
	return path[pos-1]
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
		m.out = VertexAt(m.cfg.Path, j.(float64))
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
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: Rounds(len(path), tc) + 2, Adversary: adv}, machines)
	if err != nil {
		return nil, err
	}
	out := make(map[sim.PartyID]tree.VertexID, len(res.Outputs))
	for p, v := range res.Outputs {
		out[p] = v.(tree.VertexID)
	}
	return out, nil
}
