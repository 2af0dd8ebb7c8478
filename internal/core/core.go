// Package core implements TreeAA, the paper's main contribution (Section 7):
// round-optimal Approximate Agreement on trees in the synchronous model with
// optimal resilience t < n/3.
//
// The protocol composes the two reductions developed in the paper:
//
//  1. PathsFinder (Section 6) gives every honest party a root-anchored path
//     that intersects the honest inputs' convex hull, with all honest paths
//     equal up to one trailing edge. It costs R_PathsFinder =
//     R_RealAA(2|V(T)|, 1) rounds, and all parties wait until that round so
//     the next phase starts simultaneously (line 4 of the paper's TreeAA).
//  2. Each party projects its input onto its path (Section 5, Lemma 1) and
//     joins a second RealAA(1) on the projected positions. The output is the
//     vertex at position closestInt(j) on its own path, except that a party
//     holding the shorter path that sees closestInt(j) > k outputs its last
//     vertex v_k: Theorem 4 shows all honest outputs then land on
//     {v_k*, v_k*+1}, preserving 1-Agreement and Validity even though that
//     party cannot tell which neighbor extends the longer path (Figure 5).
//
// Total round complexity: R_RealAA(2|V|, 1) + R_RealAA(D(T), 1) =
// O(log|V(T)| / log log|V(T)|), which Section 3's adaptation of Fekete's
// bound shows is asymptotically optimal for D(T) ∈ |V(T)|^Θ(1), t ∈ Θ(n).
// That is the schedule for t >= 2. With a fault budget t <= 1 each RealAA
// phase ends in exact agreement after t+1 iterations (realaa.Iterations), so
// TreeAA runs 6(t+1) rounds on any tree and all honest outputs are equal.
package core

import (
	"fmt"

	"treeaa/internal/pathaa"
	"treeaa/internal/pathsfinder"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Protocol-phase tags, exported so adversary strategies can target each
// phase's gradecast traffic.
const (
	// TagPathsFinder tags the PathsFinder phase (rounds 1..R_PathsFinder).
	TagPathsFinder = "treeaa/pf"
	// TagProjection tags the projection phase RealAA(1).
	TagProjection = "treeaa/proj"
	// TagPathShortcut tags the single-phase Section 4 protocol used when
	// the input space is itself a path (see Machine).
	TagPathShortcut = "treeaa/path"
)

// PhaseTag names one attackable protocol phase of an execution on t.
type PhaseTag struct {
	// Tag is the gradecast execution tag of the phase.
	Tag string
	// StartRound is the phase's first global round.
	StartRound int
}

// PhaseTags returns the phases TreeAA actually runs on tr under fault
// budget t, for adversary targeting: the Section 4 shortcut phase for path
// input spaces, or PathsFinder followed by the projection phase otherwise.
// Trivial trees (D <= 1) have no phases.
func PhaseTags(tr *tree.Tree, t int) []PhaseTag {
	if trivial(tr) {
		return nil
	}
	if tr.IsPath() {
		return []PhaseTag{{Tag: TagPathShortcut, StartRound: 1}}
	}
	return []PhaseTag{
		{Tag: TagPathsFinder, StartRound: 1},
		{Tag: TagProjection, StartRound: PathsFinderRounds(tr, t) + 1},
	}
}

// Config parameterizes a TreeAA party.
type Config struct {
	// Tree is the public input space tree.
	Tree *tree.Tree
	// N is the number of parties, T the fault budget (T < N/3).
	N, T int
	// ID is this party's identity.
	ID sim.PartyID
	// Input is this party's input vertex.
	Input tree.VertexID
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Tree == nil {
		return fmt.Errorf("treeaa: nil tree")
	}
	if !c.Tree.Valid(c.Input) {
		return fmt.Errorf("treeaa: invalid input vertex %d", int(c.Input))
	}
	if c.N <= 0 {
		return fmt.Errorf("treeaa: N = %d, want > 0", c.N)
	}
	if c.T < 0 || 3*c.T >= c.N {
		return fmt.Errorf("treeaa: T = %d, want 0 <= 3T < N = %d", c.T, c.N)
	}
	if c.ID < 0 || int(c.ID) >= c.N {
		return fmt.Errorf("treeaa: ID = %d out of range", c.ID)
	}
	return nil
}

// PathsFinderRounds returns R_PathsFinder for the tree under fault budget
// t: the round at whose end every honest party holds its path, and after
// which the projection phase starts simultaneously.
func PathsFinderRounds(tr *tree.Tree, t int) int { return pathsfinder.Rounds(tr, t) }

// ProjectionRounds returns the round budget of the projection-phase
// RealAA(1) under fault budget t: honest positions are D(T)-close.
func ProjectionRounds(tr *tree.Tree, t int) int {
	d, _, _ := tr.Diameter()
	return realaa.Rounds(t, float64(d), 1)
}

// Rounds returns TreeAA's total communication-round budget for the tree
// under fault budget t (see realaa.Iterations for how t enters: t+1
// iterations per phase when t <= 1, the Theorem 3 schedule otherwise). Path
// input spaces use the Section 4 shortcut (a single RealAA(1) on positions);
// all other trees pay both phases.
func Rounds(tr *tree.Tree, t int) int {
	if trivial(tr) {
		return 0
	}
	if tr.IsPath() {
		return pathaa.Rounds(tr.NumVertices(), t)
	}
	return PathsFinderRounds(tr, t) + ProjectionRounds(tr, t)
}

// trivial reports whether the input space makes AA trivial (D(T) <= 1:
// every party may output its own input, Section 2).
func trivial(t *tree.Tree) bool {
	d, _, _ := t.Diameter()
	return d <= 1
}

// Machine is one party's TreeAA execution; its output is a tree.VertexID.
//
// When the input space is itself a path, the machine applies the paper's
// Section 4 protocol directly (one RealAA(1) on canonical positions) —
// PathsFinder would only rediscover the path everyone already knows, so
// the shortcut halves the round budget without touching any guarantee.
type Machine struct {
	cfg Config

	pf       *pathsfinder.Machine
	pfRounds int

	// shortcut is non-nil for path input spaces (Section 4 direct mode).
	shortcut *pathaa.Machine

	path []tree.VertexID // the path P obtained from PathsFinder
	proj *realaa.Machine // projection-phase RealAA(1), created lazily

	out      tree.VertexID
	fellBack bool // decide() hit the closestInt(j) > k fallback (Figure 5)
	done     bool
}

var _ sim.Machine = (*Machine)(nil)

// NewMachine builds a TreeAA machine for one party.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, pfRounds: PathsFinderRounds(cfg.Tree, cfg.T)}
	if trivial(cfg.Tree) {
		// Line 0, Section 2: output the input immediately.
		m.out, m.done = cfg.Input, true
		return m, nil
	}
	if cfg.Tree.IsPath() {
		sc, err := pathaa.NewSpanning(pathaa.Config{
			Tree: cfg.Tree, N: cfg.N, T: cfg.T, ID: cfg.ID,
			Input: cfg.Input, Tag: TagPathShortcut,
		})
		if err != nil {
			return nil, err
		}
		m.shortcut = sc
		return m, nil
	}
	pf, err := pathsfinder.NewMachine(pathsfinder.Config{
		Tree: cfg.Tree, Root: cfg.Tree.Root(),
		N: cfg.N, T: cfg.T, ID: cfg.ID,
		Input: cfg.Input, Tag: TagPathsFinder,
	})
	if err != nil {
		return nil, err
	}
	m.pf = pf
	return m, nil
}

// Path returns the path obtained from PathsFinder (nil until round
// R_PathsFinder completes); primarily for tests and tracing.
func (m *Machine) Path() []tree.VertexID {
	out := make([]tree.VertexID, len(m.path))
	copy(out, m.path)
	return out
}

// PathsFinderMachine exposes the PathsFinder sub-execution (nil for path
// input spaces and trivial trees) for invariant probes; treat it as
// read-only.
func (m *Machine) PathsFinderMachine() *pathsfinder.Machine { return m.pf }

// ProjectionMachine exposes the projection-phase RealAA(1) (nil until
// PathsFinder completes, and always nil in shortcut or trivial mode) for
// invariant probes; treat it as read-only.
func (m *Machine) ProjectionMachine() *realaa.Machine { return m.proj }

// ShortcutMachine exposes the Section 4 path-shortcut sub-execution (non-nil
// exactly when the input space is a nontrivial path) for invariant probes;
// treat it as read-only.
func (m *Machine) ShortcutMachine() *pathaa.Machine { return m.shortcut }

// FinalRound returns the round of the machine's processing step, one past
// its last communication round: the step that produces the output and sends
// nothing (driver.FinalRounder).
func (m *Machine) FinalRound() int { return Rounds(m.cfg.Tree, m.cfg.T) + 1 }

// Step implements sim.Machine.
func (m *Machine) Step(r int, inbox []sim.Message) []sim.Message {
	if m.done {
		return nil
	}
	if m.shortcut != nil {
		out := m.shortcut.Step(r, inbox)
		if v, ok := m.shortcut.Output(); ok {
			m.out, m.done = v.(tree.VertexID), true
		}
		return out
	}
	// Each phase's machine reuses its own outbox buffer, so its slice is
	// returned as it is; only the hand-off round, in which both phases may
	// speak, concatenates — into a capped copy that aliases neither buffer.
	var out []sim.Message
	if m.path == nil {
		out = m.pf.Step(r, inbox)
		if v, ok := m.pf.Output(); ok {
			// PathsFinder guarantees this happens by the end of round
			// pfRounds; the projection phase starts at pfRounds+1 at every
			// honest party simultaneously (the paper's line 4 wait).
			m.path = v.([]tree.VertexID)
			proj, err := m.newProjection()
			if err != nil {
				// Construction can only fail on invalid configuration,
				// which Validate has excluded; terminate defensively at the
				// path end rather than panic in a library path.
				m.out, m.done = m.path[len(m.path)-1], true
				return out
			}
			m.proj = proj
		}
	}
	if m.proj != nil && !m.done {
		projOut := m.proj.Step(r, inbox)
		if j, ok := m.proj.Output(); ok {
			m.decide(j.(float64))
		}
		if len(out) == 0 {
			return projOut
		}
		out = append(out[:len(out):len(out)], projOut...)
	}
	return out
}

// newProjection builds the projection-phase RealAA(1) with this party's
// projected position as input (the paper's line 5).
func (m *Machine) newProjection() (*realaa.Machine, error) {
	idx, _ := m.cfg.Tree.ProjectOntoPath(m.path, m.cfg.Input)
	d, _, _ := m.cfg.Tree.Diameter()
	return realaa.NewMachine(realaa.Config{
		N: m.cfg.N, T: m.cfg.T, ID: m.cfg.ID, Tag: TagProjection,
		Iterations: realaa.Iterations(m.cfg.T, float64(d), 1),
		StartRound: m.pfRounds + 1,
		Input:      float64(idx + 1), // 1-based position on the path
	})
}

// DecideVertex applies the paper's line 6 to a RealAA output j on a path of
// k vertices: output v_closestInt(j), falling back to the path's last vertex
// when closestInt(j) > k — the party holds the shorter of the two honest
// paths (Figure 5) and cannot tell which neighbor extends the longer one.
// fellBack reports that case. Exported so tests can drive the fallback and
// the defensive pos < 1 clamp directly with out-of-range positions.
func DecideVertex(path []tree.VertexID, j float64) (out tree.VertexID, fellBack bool) {
	k := len(path)
	pos := realaa.ClosestInt(j)
	switch {
	case pos > k:
		return path[k-1], true
	case pos < 1:
		// Remark 1 rules this out against <= t faults; defensive only.
		return path[0], false
	default:
		return path[pos-1], false
	}
}

// decide applies DecideVertex to this party's own path and terminates.
func (m *Machine) decide(j float64) {
	m.out, m.fellBack = DecideVertex(m.path, j)
	m.done = true
}

// Output implements sim.Machine; the value is a tree.VertexID.
func (m *Machine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.out, true
}

// FellBack reports whether this party hit the paper's Figure 5 corner case:
// it held the shorter path and saw closestInt(j) > k, outputting its path
// end instead of guessing which neighbor extends the longer path.
func (m *Machine) FellBack() bool { return m.fellBack }

// Result carries the outcome of a convenience Run.
type Result struct {
	// Outputs maps each honest party to its output vertex.
	Outputs map[sim.PartyID]tree.VertexID
	// Rounds is the number of rounds the execution used (including the
	// final local processing step).
	Rounds int
	// Messages and Bytes are the network totals.
	Messages int
	Bytes    int
}

// Run executes TreeAA for n parties on tree t with the given inputs
// (inputs[i] is party i's input vertex) under adv (nil for none), and
// returns the honest outputs and execution statistics.
func Run(t *tree.Tree, n, tc int, inputs []tree.VertexID, adv sim.Adversary) (*Result, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("treeaa: %d inputs for n = %d", len(inputs), n)
	}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{Tree: t, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	res, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: Rounds(t, tc) + 2, Adversary: adv}, machines)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Outputs:  make(map[sim.PartyID]tree.VertexID, len(res.Outputs)),
		Rounds:   res.Rounds,
		Messages: res.Messages,
		Bytes:    res.Bytes,
	}
	for p, v := range res.Outputs {
		out.Outputs[p] = v.(tree.VertexID)
	}
	return out, nil
}
