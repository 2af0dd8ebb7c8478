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
//  2. Each party runs the Section 5 known-path protocol (pathaa.Machine) on
//     its own path: it projects its input onto the path (Lemma 1), joins a
//     second RealAA(1) on the projected positions, and outputs the vertex at
//     position closestInt(j), except that a party holding the shorter path
//     that sees closestInt(j) > k outputs its last vertex v_k: Theorem 4
//     shows all honest outputs then land on {v_k*, v_k*+1}, preserving
//     1-Agreement and Validity even though that party cannot tell which
//     neighbor extends the longer path (Figure 5).
//
// Theorem 4's round complexity: R_RealAA(2|V|, 1) + R_RealAA(D(T), 1) =
// O(log|V(T)| / log log|V(T)|), which Section 3's adaptation of Fekete's
// bound shows is asymptotically optimal for D(T) ∈ |V(T)|^Θ(1), t ∈ Θ(n).
// The schedule shipped for t >= 2 gives each RealAA phase the longer of
// Theorem 3's count and the DLPSW halving count ⌈log2 D⌉ (realaa.Iterations:
// Finding F-B outlives the first), so Rounds is O(log |V(T)|) there. With a
// fault budget t <= 1 each RealAA phase ends in exact agreement after t+1
// iterations (realaa.Iterations), so the schedule is 6(t+1) rounds on any
// tree and all honest outputs are equal. Either schedule is a budget, not a
// cost: the phase that produces the output (the Section 5 phase) decides
// early wherever a realaa.Config.Eps rule holds —
// in iteration 1 on unanimous value echoes at any t, at its ε-witness
// for t >= 2 — and an execution stops in the round its last honest party
// decides. An honest spider:3:3 run at n = 4, t = 1 thus stops in round 9
// of a 13-round schedule (PathsFinder keeps its whole budget: its output
// times the simultaneous phase switch).
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
	// TagPathShortcut tags the Section 5 phase when the input space is
	// itself a path and it runs alone from round 1 (see Machine).
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
// budget t, for adversary targeting: the Section 5 phase alone for path
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
// iterations per phase when t <= 1, the longer of Theorem 3's and DLPSW's
// count otherwise); an execution may stop before it (realaa.Config.Eps). Path
// input spaces run only the Section 5 phase, on the whole path; all other
// trees pay PathsFinder first.
func Rounds(tr *tree.Tree, t int) int {
	if trivial(tr) {
		return 0
	}
	if tr.IsPath() {
		return ProjectionRounds(tr, t)
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
// When the input space is itself a path, the machine runs the Section 5
// phase on the whole path from round 1 — PathsFinder would only rediscover
// the path everyone already knows, so skipping it halves the round budget
// without touching any guarantee.
type Machine struct {
	cfg  Config
	pf   *pathsfinder.Machine
	path []tree.VertexID // the path P obtained from PathsFinder
	// known is the Section 5 phase: built at construction on a path space,
	// at the PathsFinder hand-off otherwise; nil on a trivial tree.
	known *pathaa.Machine
}

var _ sim.LaneReader = (*Machine)(nil)

// NewMachine builds a TreeAA machine for one party.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}
	if trivial(cfg.Tree) {
		return m, nil // line 0, Section 2: Output is the input
	}
	var err error
	if cfg.Tree.IsPath() {
		m.known, err = m.newKnownPath(nil, TagPathShortcut, 1)
	} else {
		m.pf, err = pathsfinder.NewMachine(pathsfinder.Config{
			Tree: cfg.Tree, Root: cfg.Tree.Root(),
			N: cfg.N, T: cfg.T, ID: cfg.ID,
			Input: cfg.Input, Tag: TagPathsFinder,
		})
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// newKnownPath builds the Section 5 phase on path (nil: the whole path
// space) with this party's input (the paper's line 5).
func (m *Machine) newKnownPath(path []tree.VertexID, tag string, start int) (*pathaa.Machine, error) {
	return pathaa.NewMachine(pathaa.Config{
		Tree: m.cfg.Tree, Path: path, N: m.cfg.N, T: m.cfg.T, ID: m.cfg.ID,
		Input: m.cfg.Input, Tag: tag, StartRound: start,
	})
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

// PathAAMachine exposes the Section 5 phase (nil on a trivial tree, and
// until PathsFinder completes on a non-path tree) for invariant probes;
// treat it as read-only.
func (m *Machine) PathAAMachine() *pathaa.Machine { return m.known }

// Step implements sim.Machine. A machine that has decided keeps stepping
// its RealAA phase to the schedule's end: an early decision
// (realaa.Config.Eps) must not silence the party while others still wait.
func (m *Machine) Step(r int, inbox []sim.Message) []sim.Message { return m.StepLane(r, inbox, nil) }

// StepLane implements sim.LaneReader: Step, with the lane forwarded to the
// RealAA phases (both get it in the hand-off round; their tags differ).
func (m *Machine) StepLane(r int, inbox []sim.Message, lane *sim.Lane) []sim.Message {
	// Each phase's machine reuses its own outbox buffer, so its slice is
	// returned as it is; only the hand-off round, in which both phases may
	// speak, concatenates — into a capped copy that aliases neither buffer.
	var out []sim.Message
	if m.pf != nil && m.known == nil {
		out = m.pf.StepLane(r, inbox, lane)
		if v, ok := m.pf.Output(); ok {
			// PathsFinder guarantees this happens by the end of round
			// R_PathsFinder; the Section 5 phase starts in the next round at
			// every honest party simultaneously (the paper's line 4 wait).
			// Construction cannot fail on a configuration Validate passed.
			m.path = v.([]tree.VertexID)
			m.known, _ = m.newKnownPath(m.path, TagProjection, PathsFinderRounds(m.cfg.Tree, m.cfg.T)+1)
		}
	}
	if m.known == nil {
		return out
	}
	knownOut := m.known.StepLane(r, inbox, lane)
	if len(out) == 0 {
		return knownOut
	}
	return append(out[:len(out):len(out)], knownOut...)
}

// Output implements sim.Machine; the value is a tree.VertexID.
func (m *Machine) Output() (any, bool) {
	if m.known != nil {
		return m.known.Output()
	}
	if m.pf == nil {
		return m.cfg.Input, true // trivial tree
	}
	return nil, false
}

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
