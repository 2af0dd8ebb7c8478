package cli

// Space is the input-space abstraction shared by the cmd/ binaries and the
// property checker: either a tree (the original TreeAA space) or a block
// graph (the journal version's extension, run as TreeAA on the block-cut
// tree plus a local decode). Exactly one of Tree/Graph is set.
//
// The canonical spec string for a graph space is "graph:" + the graph spec
// grammar of internal/graph ("graph:cycle:9", "graph:cliquechain:3:4",
// "graph:@FILE"); anything without the prefix is a tree spec. The prefixed
// form flows through every existing string-shaped seam unchanged — Spec.Tree
// in the serving layer, JournalOpen.Tree in the WAL, the cluster session
// hash — so graph sessions replay and rendezvous exactly like tree sessions.

import (
	"fmt"
	"strings"

	"treeaa/internal/async"
	"treeaa/internal/core"
	"treeaa/internal/driver"
	"treeaa/internal/graph"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// GraphPrefix marks a spec string as a graph-space spec.
const GraphPrefix = "graph:"

// Space is one parsed input space. Use ParseSpaceSpec to construct it.
type Space struct {
	// Spec is the canonical spec string this space was parsed from (with
	// the "graph:" prefix for graph spaces).
	Spec  string
	Tree  *tree.Tree
	Graph *graph.Graph
}

// ParseSpaceSpec parses a canonical space spec: a "graph:"-prefixed graph
// spec, or a tree spec.
func ParseSpaceSpec(spec string, seed int64) (*Space, error) {
	if gspec, ok := strings.CutPrefix(spec, GraphPrefix); ok {
		g, err := graph.ParseSpec(gspec, seed)
		if err != nil {
			return nil, err
		}
		return &Space{Spec: spec, Graph: g}, nil
	}
	tr, err := ParseTreeSpec(spec, seed)
	if err != nil {
		return nil, err
	}
	return &Space{Spec: spec, Tree: tr}, nil
}

// IsGraph reports whether this is a graph space.
func (s *Space) IsGraph() bool { return s.Graph != nil }

// metric is what *tree.Tree and *graph.Graph answer alike about their
// vertices, labels, distances and hulls.
type metric interface {
	NumVertices() int
	Valid(v tree.VertexID) bool
	Label(v tree.VertexID) string
	VertexByLabel(label string) (tree.VertexID, error)
	Dist(u, v tree.VertexID) int
	ConvexHull(vs []tree.VertexID) []tree.VertexID
	InHull(vs []tree.VertexID, v tree.VertexID) bool
}

// metric returns the one input space that is set.
func (s *Space) metric() metric {
	if s.IsGraph() {
		return s.Graph
	}
	return s.Tree
}

// ProtocolTree returns the tree the TreeAA protocol actually runs on: the
// space itself for trees, the block-cut tree for graphs. Round budgets,
// adversary phase schedules, wire vertex payloads and every core probe
// surface are defined against this tree.
func (s *Space) ProtocolTree() *tree.Tree {
	if s.IsGraph() {
		return s.Graph.BlockCutTree()
	}
	return s.Tree
}

// NumVertices returns the number of input-space vertices.
func (s *Space) NumVertices() int { return s.metric().NumVertices() }

// Valid reports whether v is an input-space vertex.
func (s *Space) Valid(v tree.VertexID) bool { return s.metric().Valid(v) }

// Label returns the label of input-space vertex v.
func (s *Space) Label(v tree.VertexID) string { return s.metric().Label(v) }

// Labels returns the labels of vs, in order.
func (s *Space) Labels(vs []tree.VertexID) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = s.Label(v)
	}
	return out
}

// VertexByLabel resolves an input-space label.
func (s *Space) VertexByLabel(label string) (tree.VertexID, error) {
	return s.metric().VertexByLabel(label)
}

// Dist returns the input-space distance (geodesic for graphs).
func (s *Space) Dist(u, v tree.VertexID) int { return s.metric().Dist(u, v) }

// ConvexHull returns the input-space convex hull of vs, ascending.
func (s *Space) ConvexHull(vs []tree.VertexID) []tree.VertexID {
	return s.metric().ConvexHull(vs)
}

// InHull reports whether v lies in the input-space hull of vs.
func (s *Space) InHull(vs []tree.VertexID, v tree.VertexID) bool {
	return s.metric().InHull(vs, v)
}

// AgreementOK reports the pairwise output guarantee of the space's
// protocol: distance <= 1 on trees and block graphs, relaxed to a common
// block when the graph has cycle (or other non-clique) blocks.
func (s *Space) AgreementOK(u, v tree.VertexID) bool {
	if s.IsGraph() {
		return s.Graph.AgreementOK(u, v)
	}
	return s.Tree.Dist(u, v) <= 1
}

// Judge evaluates Definition 2 over the honest parties' outputs, the one
// verdict every driver and checker reports. validity lists the outputs
// outside the honest inputs' hull; agreement lists the output pairs that
// break AgreementOK or, on trees and block graphs (where the guarantee is
// strict 1-agreement), lie further than distance 1 apart; maxDist is the
// largest pairwise output distance. Corrupted parties' inputs and outputs
// are ignored, and a party missing from outputs is skipped — termination is
// the caller's to report.
func (s *Space) Judge(inputs []tree.VertexID, corrupted map[sim.PartyID]bool,
	outputs map[sim.PartyID]tree.VertexID) (maxDist int, validity, agreement []string) {
	var honestIn []tree.VertexID
	var parties []sim.PartyID
	for i, v := range inputs {
		p := sim.PartyID(i)
		if corrupted[p] {
			continue
		}
		honestIn = append(honestIn, v)
		if _, ok := outputs[p]; ok {
			parties = append(parties, p)
		}
	}
	hull := s.ConvexHull(honestIn)
	inHull := make(map[tree.VertexID]bool, len(hull))
	for _, v := range hull {
		inHull[v] = true
	}
	strict := !s.IsGraph() || s.Graph.IsBlockGraph()
	for i, p := range parties {
		vp := outputs[p]
		if !inHull[vp] {
			validity = append(validity, fmt.Sprintf("party %d output %s outside honest hull %v",
				p, s.Label(vp), s.Labels(hull)))
		}
		for _, q := range parties[i+1:] {
			vq := outputs[q]
			d := s.Dist(vp, vq)
			maxDist = max(maxDist, d)
			switch {
			case strict && d > 1:
				agreement = append(agreement, fmt.Sprintf("parties %d and %d output %s and %s at distance %d",
					p, q, s.Label(vp), s.Label(vq), d))
			case !s.AgreementOK(vp, vq):
				agreement = append(agreement, fmt.Sprintf("parties %d and %d output %s and %s (distance %d, no shared block)",
					p, q, s.Label(vp), s.Label(vq), d))
			}
		}
	}
	return maxDist, validity, agreement
}

// uncappedT is a fault budget on the t >= 2 schedule: core.Rounds is the
// same for every t >= 2 and never longer below.
const uncappedT = 2

// Rounds returns a ceiling on the honest round budget of the space's
// protocol over every fault budget t — the schedule of t >= 2. It is for
// MaxRounds and timeout budgets only: an execution with t <= 1 finishes in
// core.Rounds(s.ProtocolTree(), t) rounds, well inside it.
func (s *Space) Rounds() int { return core.Rounds(s.ProtocolTree(), uncappedT) }

// NewMachine builds one party's machine for this space. It returns the
// sim.Machine to drive and the underlying core machine on the protocol
// tree — the probe surface checkers read; for trees they are the same
// object, for graphs the core machine is the graph machine's inner TreeAA
// instance.
func (s *Space) NewMachine(n, t int, id sim.PartyID, input tree.VertexID) (sim.Machine, *core.Machine, error) {
	if s.IsGraph() {
		gm, err := graph.NewMachine(graph.Config{Graph: s.Graph, N: n, T: t, ID: id, Input: input})
		if err != nil {
			return nil, nil, err
		}
		return gm, gm.Core(), nil
	}
	m, err := core.NewMachine(core.Config{Tree: s.Tree, N: n, T: t, ID: id, Input: input})
	if err != nil {
		return nil, nil, err
	}
	return m, m, nil
}

// NewAsyncMachine builds one party's asynchronous machine for this space:
// the event-driven pipeline on the protocol tree. Like NewMachine it
// returns the machine to drive and the underlying pipeline — the probe
// surface checkers read; for trees they are the same object, for graphs the
// pipeline starts from η(input) and the machine decodes the agreed
// block-cut tree node at output time.
func (s *Space) NewAsyncMachine(n, t int, id sim.PartyID, input tree.VertexID) (driver.EventMachine, *async.Pipeline, error) {
	if !s.IsGraph() {
		p, err := async.NewPipeline(s.Tree, n, t, id, input)
		if err != nil {
			return nil, nil, err
		}
		return p, p, nil
	}
	if !s.Graph.Valid(input) {
		return nil, nil, fmt.Errorf("%w: input %d", graph.ErrUnknownVertex, int(input))
	}
	p, err := async.NewPipeline(s.Graph.BlockCutTree(), n, t, id, s.Graph.Eta(input))
	if err != nil {
		return nil, nil, err
	}
	return graphAsync{Pipeline: p, g: s.Graph, input: input}, p, nil
}

// graphAsync is the asynchronous block-graph machine: the pipeline on the
// block-cut tree with the communication-free decode applied to its output.
type graphAsync struct {
	*async.Pipeline
	g     *graph.Graph
	input tree.VertexID
}

func (m graphAsync) Output() (any, bool) {
	raw, done := m.Pipeline.Output()
	if !done {
		return nil, false
	}
	return m.g.Decode(m.input, raw.(tree.VertexID)), true
}

// SpreadInputs places n inputs roughly evenly across the input-space
// vertex ID range.
func (s *Space) SpreadInputs(n int) []tree.VertexID {
	inputs := make([]tree.VertexID, n)
	denom := n - 1
	if denom < 1 {
		denom = 1
	}
	for i := range inputs {
		inputs[i] = tree.VertexID(i * (s.NumVertices() - 1) / denom)
	}
	return inputs
}

// ParseInputs resolves a comma-separated list of input-space labels, or
// spreads inputs when the spec is empty.
func (s *Space) ParseInputs(spec string, n int) ([]tree.VertexID, error) {
	if spec == "" {
		return s.SpreadInputs(n), nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("got %d inputs for n = %d", len(parts), n)
	}
	inputs := make([]tree.VertexID, n)
	for i, label := range parts {
		v, err := s.VertexByLabel(strings.TrimSpace(label))
		if err != nil {
			return nil, err
		}
		inputs[i] = v
	}
	return inputs, nil
}

// RotateInputs renders the spread placement rotated by shift vertex
// positions as a comma-separated label list ParseInputs accepts. The
// serving-layer drivers use it to give concurrent sessions distinct but
// deterministic inputs from one knob.
func (s *Space) RotateInputs(n, shift int) string {
	labels := make([]string, n)
	denom := n - 1
	if denom < 1 {
		denom = 1
	}
	v := s.NumVertices()
	for i := range labels {
		labels[i] = s.Label(tree.VertexID((i*(v-1)/denom + shift) % v))
	}
	return strings.Join(labels, ",")
}
