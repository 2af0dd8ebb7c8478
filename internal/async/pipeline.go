package async

// Pipeline is the asynchronous TreeAA machine: the paper's synchronous
// decomposition — PathsFinder on Euler-list indices, then RealAA(1) on
// positions along the agreed root path (internal/core.Machine) — rebuilt on
// the witness-based asynchronous RealAA of this package.
//
// Phase 1 runs AAMachine on the party's first Euler-list index,
// HalvingIterations(2|V|, 1) iterations, so outputs land within 1/2 of each
// other; ClampIndex rounds them to list indices that differ by at most one,
// and consecutive list entries are adjacent vertices, so the decoded root
// paths are equal up to one trailing edge — exactly PathsFinder's Lemma 4
// guarantee, carried by AA validity + epsilon-agreement alone. Phase 2 runs
// AAMachine on the 1-based projected position of the input onto the party's
// own path; pathaa.VertexAt decodes, with its shorter-path fallback
// covering the trailing-edge case (the paper's Figure 5).
//
// Unlike the synchronous machine there is no global round at which phase 2
// begins: each party starts its projection phase the moment its own phase 1
// decides, and buffers any projection-phase traffic that arrives earlier
// (peers ahead of us). Every party always runs both phases — even when its
// decoded path is a single vertex — because a party that skipped phase 2
// would look crashed to the witness thresholds of those that did not.
//
// Trees of diameter <= 1 are trivial, mirroring core: any input is within
// distance 1 of any other, so the machine decides its own input at Init
// with no communication.

import (
	"fmt"

	"treeaa/internal/pathaa"
	"treeaa/internal/pathsfinder"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// The phase byte every pipeline payload carries, as the wire names it: which
// of the two chained AAMachine instances the step belongs to.
const (
	PhasePathsFinder = wire.AsyncPhasePathsFinder
	PhaseProjection  = wire.AsyncPhaseProjection
)

// Pipeline is one party's asynchronous TreeAA execution.
type Pipeline struct {
	tr    *tree.Tree
	n, t  int
	me    PartyID
	input tree.VertexID
	list  *tree.EulerList

	pfIters, projIters int

	phase1 *AAMachine[float64]
	path   []tree.VertexID
	phase2 *AAMachine[float64]
	// buf2 holds projection-phase messages that arrived before this party's
	// own phase 1 decided; they replay into phase2 the moment it exists.
	buf2 []Message

	out  tree.VertexID
	done bool
}

// NewPipeline validates the configuration and builds the machine. The
// parameters mirror core.Config: n > 3t whenever t > 0, and the input must
// be a vertex of tr.
func NewPipeline(tr *tree.Tree, n, t int, me PartyID, input tree.VertexID) (*Pipeline, error) {
	if tr == nil {
		return nil, fmt.Errorf("async: nil tree")
	}
	if n < 1 {
		return nil, fmt.Errorf("async: n = %d, want >= 1", n)
	}
	if t < 0 {
		return nil, fmt.Errorf("async: t = %d, want >= 0", t)
	}
	if t > 0 && n <= 3*t {
		return nil, fmt.Errorf("async: n = %d does not satisfy n > 3t for t = %d", n, t)
	}
	if me < 0 || int(me) >= n {
		return nil, fmt.Errorf("async: party id %d out of range [0, %d)", int(me), n)
	}
	if !tr.Valid(input) {
		return nil, fmt.Errorf("async: invalid input vertex %d", int(input))
	}
	p := &Pipeline{tr: tr, n: n, t: t, me: me, input: input}
	d, _, _ := tr.Diameter()
	if d <= 1 {
		p.out, p.done = input, true
		return p, nil
	}
	var err error
	if p.list, err = tree.ListConstruction(tr, tr.Root()); err != nil {
		return nil, fmt.Errorf("async: %w", err)
	}
	// The same iteration budgets as the synchronous phases, in asynchronous
	// halving iterations: indices span [1, |L|] with |L| <= 2|V|, positions
	// span [1, d+1] with range d.
	p.pfIters = HalvingIterations(float64(2*tr.NumVertices()), 1)
	p.projIters = HalvingIterations(float64(d), 1)
	p.phase1 = NewRealAA(n, t, me, float64(p.list.FirstIndex(input)), p.pfIters)
	return p, nil
}

// Init implements Machine.
func (p *Pipeline) Init() []Message {
	if p.done {
		return nil
	}
	return broadcastWire(PhasePathsFinder, p.phase1.start(), nil)
}

// broadcastWire appends one broadcast per step to out, stamped with its
// phase: the pipeline's payloads are wire.AsyncValue and wire.AsyncReport
// themselves, so a networked driver ships and delivers them unconverted.
func broadcastWire(phase byte, steps []Step[float64], out []Message) []Message {
	for _, s := range steps {
		out = append(out, Message{To: Broadcast, Payload: wirePayload(phase, s)})
	}
	return out
}

func wirePayload(phase byte, s Step[float64]) any {
	if s.Report {
		return wire.AsyncReport{Phase: phase, Kind: s.Kind, Iter: s.Iter, Src: s.Src, Senders: s.Senders}
	}
	return wire.AsyncValue{Phase: phase, Kind: s.Kind, Iter: s.Iter, Src: s.Src, Val: s.Val}
}

// wireStep is wirePayload's inverse; ok is false for any other payload.
func wireStep(payload any) (phase byte, s Step[float64], ok bool) {
	switch q := payload.(type) {
	case wire.AsyncValue:
		return q.Phase, Step[float64]{Kind: q.Kind, Iter: q.Iter, Src: q.Src, Val: q.Val}, true
	case wire.AsyncReport:
		return q.Phase, Step[float64]{Report: true, Kind: q.Kind, Iter: q.Iter, Src: q.Src, Senders: q.Senders}, true
	}
	return 0, s, false
}

// Deliver implements Machine. Steps route to the phase they name; anything
// else (Byzantine garbage) is ignored.
func (p *Pipeline) Deliver(m Message) []Message {
	phase, s, ok := wireStep(m.Payload)
	if !ok || p.phase1 == nil {
		return nil
	}
	// Phase 1 keeps echoing after it decides — peers may still need the
	// amplification — so its deliveries route unconditionally.
	aa := p.phase1
	if phase == PhaseProjection {
		if p.phase2 == nil {
			// Buffer only what phase 2 could act on: a step it would drop
			// must not cost memory either.
			if s.valid(p.n, p.projIters, m.From) {
				p.buf2 = append(p.buf2, m)
			}
			return nil
		}
		aa = p.phase2
	} else if phase != PhasePathsFinder {
		return nil
	}
	out := broadcastWire(phase, aa.handle(m.From, s), nil)
	if p.phase2 == nil {
		if j, decided := p.phase1.Output(); decided {
			out = p.startProjection(j.(float64), out)
		}
	}
	if !p.done && p.phase2 != nil {
		if j, decided := p.phase2.Output(); decided {
			p.out, _ = pathaa.VertexAt(p.path, j.(float64))
			p.done = true
		}
	}
	return out
}

// startProjection decodes phase 1's index agreement into this party's root
// path, builds phase 2 on the projected position, and replays any buffered
// projection traffic through it, appending what that emits to out.
func (p *Pipeline) startProjection(j float64, out []Message) []Message {
	idx := pathsfinder.ClampIndex(p.list, j)
	path, err := p.list.PathFromRoot(idx)
	if err != nil {
		// Unreachable after ClampIndex; decide defensively at the root
		// rather than deadlock the other parties' witness thresholds.
		path = []tree.VertexID{p.list.Root()}
	}
	p.path = path
	pos, _ := p.tr.ProjectOntoPath(path, p.input)
	p.phase2 = NewRealAA(p.n, p.t, p.me, float64(pos+1), p.projIters)
	out = broadcastWire(PhaseProjection, p.phase2.start(), out)
	buffered := p.buf2
	p.buf2 = nil
	for _, m := range buffered {
		out = append(out, p.Deliver(m)...)
	}
	return out
}

// Output implements Machine; the value is a tree.VertexID.
func (p *Pipeline) Output() (any, bool) {
	if !p.done {
		return nil, false
	}
	return p.out, true
}

// Path returns the root path this party decoded from phase 1 (nil until
// then); read-only, for tests and invariant probes.
func (p *Pipeline) Path() []tree.VertexID { return p.path }

// Histories returns each phase's per-iteration value history (copies; nil
// for a phase that has not started, or on trivial trees where neither phase
// runs). Read-only, for tests and invariant probes: the checker asserts
// monotone non-expansion of the honest-value interval across iterations.
func (p *Pipeline) Histories() (pathsFinder, projection []float64) {
	if p.phase1 != nil {
		pathsFinder = p.phase1.History()
	}
	if p.phase2 != nil {
		projection = p.phase2.History()
	}
	return pathsFinder, projection
}

// Iterations returns the two phases' iteration budgets.
func (p *Pipeline) Iterations() (pathsFinder, projection int) {
	return p.pfIters, p.projIters
}

// DeliveryBudget bounds the deliveries an execution can consume across the
// whole pipeline: per iteration there are 2n RBC instances (a value and a
// report per broadcaster), each delivering at most 1 init + n echoes + n
// readies = 2n+1 messages to each of the n parties — 2n²(2n+1) deliveries
// per iteration exactly. The extra half absorbs duplicate-suppressed
// traffic that still costs a delivery.
func (p *Pipeline) DeliveryBudget() int {
	return 3*p.n*p.n*(p.pfIters+p.projIters)*(2*p.n+1) + 64
}

// EnvelopeRound maps a pipeline payload to a monotone progress index — the
// AA iteration, with projection-phase iterations offset past the
// PathsFinder budget — used as the transport envelope's round field so
// round-windowed chaos clauses key onto asynchronous progress. Unknown
// payloads map to 1.
func (p *Pipeline) EnvelopeRound(payload any) int {
	phase, s, ok := wireStep(payload)
	if !ok {
		return 1
	}
	if phase == PhaseProjection {
		return s.Iter + p.pfIters
	}
	return s.Iter
}
