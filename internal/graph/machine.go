package graph

// The block-graph agreement machine: the journal version's adaptation of
// TreeAA. The protocol is TreeAA, verbatim, on the block-cut tree — every
// party maps its input vertex to η(input) and runs the unchanged core
// machine (PathsFinder routing over the block-cut tree's Euler list, then
// the RealAA projection onto the agreed root path; a path-shaped block-cut
// tree takes the pathaa shortcut) — followed by a purely local decode of
// the agreed tree node back into the graph:
//
//   - a cut node decodes to its cut vertex;
//   - a block node decodes to the party's own input when that input lies in
//     the block (exact for clique and edge blocks, the relaxed per-block
//     step for cycles);
//   - otherwise to the block's gate toward the input: the cut vertex of the
//     block on the block-cut tree path toward η(input).
//
// Why this is safe. TreeAA's validity on the block-cut tree puts the agreed
// node on a path between two honest η-images, and its 1-agreement puts any
// two honest parties' nodes within distance 1; block-cut tree neighbors are
// always a block and one of its cut vertices, so every decode above lands
// in that one block's vertex set. Validity in the graph follows because a
// cut node separating two honest inputs lies on every path between them
// (hence in the geodesic hull), an own input is trivially in the hull, and
// a gate toward the party's own input lies on a geodesic from that input to
// an honest input attached beyond the block. 1-agreement in geodesic
// distance holds whenever the shared block is an edge or a clique — i.e. on
// every true block graph, the journal result — while a shared cycle block
// bounds disagreement by the block diameter (2 on the C4/C5 cactus chains),
// the best possible on cycles by the Alistarh–Ellen–Rybicki impossibility.
//
// The machine embeds the core machine rather than reimplementing any phase,
// so rounds, message complexity, wire payloads, adversary phase tags, and
// every probe surface (suspicion masks, RealAA histories, PathsFinder
// paths) are exactly those of TreeAA on the block-cut tree.

import (
	"fmt"

	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Config configures one party's graph machine.
type Config struct {
	Graph *Graph
	N     int // parties
	T     int // Byzantine budget
	ID    sim.PartyID
	Input tree.VertexID // this party's input vertex of Graph
}

// Machine is one party's block-graph agreement state machine. It implements
// sim.Machine by delegating every round to the inner core machine on the
// block-cut tree and decoding the agreed node at output time.
type Machine struct {
	g     *Graph
	input tree.VertexID
	inner *core.Machine
}

var _ sim.LaneReader = (*Machine)(nil)

// NewMachine validates the configuration and builds the machine.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("graph: nil graph")
	}
	if !cfg.Graph.Valid(cfg.Input) {
		return nil, fmt.Errorf("%w: input %d", ErrUnknownVertex, int(cfg.Input))
	}
	inner, err := core.NewMachine(core.Config{
		Tree:  cfg.Graph.BlockCutTree(),
		N:     cfg.N,
		T:     cfg.T,
		ID:    cfg.ID,
		Input: cfg.Graph.Eta(cfg.Input),
	})
	if err != nil {
		return nil, err
	}
	return &Machine{g: cfg.Graph, input: cfg.Input, inner: inner}, nil
}

// Step implements sim.Machine.
func (m *Machine) Step(r int, inbox []sim.Message) []sim.Message {
	return m.inner.Step(r, inbox)
}

// StepLane implements sim.LaneReader, forwarding the lane to the inner
// TreeAA machine.
func (m *Machine) StepLane(r int, inbox []sim.Message, lane *sim.Lane) []sim.Message {
	return m.inner.StepLane(r, inbox, lane)
}

// Output implements sim.Machine: the decoded graph vertex once the inner
// machine has agreed on a block-cut tree node.
func (m *Machine) Output() (any, bool) {
	raw, done := m.inner.Output()
	if !done {
		return nil, false
	}
	return m.g.Decode(m.input, raw.(tree.VertexID)), true
}

// Core exposes the inner TreeAA machine on the block-cut tree — the probe
// surface the checker's per-round invariants (suspicion monotonicity,
// per-phase hull non-expansion, PathsFinder prefix agreement) read.
func (m *Machine) Core() *core.Machine { return m.inner }

// Decode maps an agreed block-cut tree node to the output vertex of the
// party whose input vertex is input — the communication-free last step of
// the block-graph protocol, shared by every runtime that runs TreeAA on the
// block-cut tree (the lock-step Machine above, the asynchronous pipeline).
func (g *Graph) Decode(input, node tree.VertexID) tree.VertexID {
	if c, ok := g.NodeCut(node); ok {
		return c
	}
	bi, ok := g.NodeBlock(node)
	if !ok {
		panic(fmt.Sprintf("graph: node %d is neither block nor cut", int(node)))
	}
	b := g.Blocks()[bi]
	for _, v := range b.Vertices {
		if v == input {
			return input
		}
	}
	// Gate: the block's cut vertex toward the party's own input. The input
	// is outside the block here, so the block-cut tree path from η(input)
	// to the block node has at least one edge, and the node before the
	// block node is a cut node of the block.
	path := g.BlockCutTree().Path(g.Eta(input), node)
	gate, ok := g.NodeCut(path[len(path)-2])
	if !ok {
		panic(fmt.Sprintf("graph: block node %d adjacent to non-cut node", int(node)))
	}
	return gate
}

// AgreementOK reports the per-pair agreement invariant of the decode rule:
// outputs at geodesic distance <= 1, or both inside one common block. On a
// block graph the second case implies the first, so 1-agreement is exact;
// on cycle blocks the disagreement is bounded by the block diameter.
func (g *Graph) AgreementOK(u, v tree.VertexID) bool {
	return u == v || g.Adjacent(u, v) || g.InSameBlock(u, v)
}

// Rounds returns the honest round budget of the graph machine under fault
// budget t: TreeAA's budget on the block-cut tree.
func Rounds(g *Graph, t int) int { return core.Rounds(g.BlockCutTree(), t) }

// PhaseTags returns the adversary-targeting phase schedule of the graph
// machine under fault budget t: TreeAA's phases on the block-cut tree.
func PhaseTags(g *Graph, t int) []core.PhaseTag { return core.PhaseTags(g.BlockCutTree(), t) }
