package check

import (
	"fmt"
	"math"
	"math/rand"

	"treeaa/internal/async"
	"treeaa/internal/cli"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// This file is the checker's asynchronous half: the same cell specs, run
// through the event-driven internal/async runtime instead of the lock-step
// sim engine. There is no sequential oracle to DeepEqual against — an
// asynchronous decision legitimately depends on delivery order — so the
// invariants carry the whole correctness story: every honest party decides
// within the delivery budget, outputs lie in the honest input hull and
// pairwise uphold the space's agreement guarantee, decoded root paths agree
// up to one trailing edge (Lemma 4), each phase's final AA values are
// within its epsilon, and the honest-value interval never expands across AA
// iterations. Each cell runs under every adversarial scheduler (fifo, lifo,
// random, starve), and everything randomized derives from the cell seed, so
// a violating spec replays deterministically.

// AsyncOptions tunes one async cell run.
type AsyncOptions struct {
	// Budget caps the deliveries per execution; 0 derives it from the honest
	// pipelines' own DeliveryBudget plus slack for Byzantine flood traffic.
	Budget int
}

// AsyncCellResult is the outcome of running one cell through the async
// runtime under every scheduler.
type AsyncCellResult struct {
	// Spec is the cell's canonical one-line spec.
	Spec string `json:"spec"`
	// Violations holds every invariant failure across all scheduler runs.
	Violations []Violation `json:"violations,omitempty"`
	// Schedulers lists the delivery orders exercised.
	Schedulers []string `json:"schedulers"`
	// Deliveries and Depth are the maxima across scheduler runs.
	Deliveries int `json:"deliveries"`
	Depth      int `json:"depth"`
}

// AsyncCompatible reports whether the cell translates to the asynchronous
// model. Omission filtering, mutate and the planted evil bug are
// round-indexed constructions with no async counterpart; every Byzantine
// clause maps — silent and crash to machines that stop participating,
// everything else to a well-formed RBC flood — and a link fault is the
// identity off the TCP links.
func AsyncCompatible(c *Cell) bool {
	for _, cl := range c.Clauses {
		switch cl.Name {
		case "omit", "stop", "mutate", "evil":
			return false
		}
	}
	return true
}

// asyncSchedulers builds the adversarial delivery orders one cell runs
// under. The random order and the starvation victim derive from the cell
// seed; the victim is the last honest party (FirstParties corrupts a prefix,
// so the last id is always honest).
func asyncSchedulers(c *Cell) []struct {
	name string
	s    async.Scheduler
} {
	return []struct {
		name string
		s    async.Scheduler
	}{
		{"fifo", async.FIFO{}},
		{"lifo", async.LIFO{}},
		{"random", async.Random{Rng: rand.New(rand.NewSource(c.Seed ^ 0x61737963))}},
		{"starve", async.Starve{Victims: map[sim.PartyID]bool{sim.PartyID(c.N - 1): true}}},
	}
}

// RunAsyncCell executes one cell through the async runtime under every
// scheduler and evaluates the asynchronous invariants. The error return
// reports an unbuildable or async-incompatible cell, never a protocol
// failure — those are Violations.
func RunAsyncCell(c *Cell, opt AsyncOptions) (*AsyncCellResult, error) {
	cr, err := compile(c)
	if err != nil {
		return nil, err
	}
	if !AsyncCompatible(c) {
		return nil, fmt.Errorf("check: cell %s has no async counterpart (omit/stop/mutate/evil are round-indexed constructions)", c)
	}
	out := &AsyncCellResult{Spec: c.String()}
	for _, sched := range asyncSchedulers(c) {
		out.Schedulers = append(out.Schedulers, sched.name)
		vs, deliveries, depth := cr.runAsyncOnce(sched.name, sched.s, opt.Budget)
		out.Violations = append(out.Violations, vs...)
		out.Deliveries = max(out.Deliveries, deliveries)
		out.Depth = max(out.Depth, depth)
	}
	out.Violations = dedupe(out.Violations)
	return out, nil
}

// runAsyncOnce builds fresh machines (pipelines and Byzantine behaviors all
// hold state) and runs the cell once under one scheduler.
func (cr *compiled) runAsyncOnce(name string, sched async.Scheduler, budget int) ([]Violation, int, int) {
	spec := cr.cell.String()
	var out []Violation
	add := func(invariant, format string, args ...any) {
		out = append(out, Violation{Cell: spec, Invariant: invariant,
			Detail: fmt.Sprintf("scheduler %s: %s", name, fmt.Sprintf(format, args...))})
	}

	machines, pipes, derived, err := cr.asyncMachines()
	if err != nil {
		add("engine", "async machines: %v", err)
		return out, 0, 0
	}
	if budget <= 0 {
		budget = derived
	}
	honest := cr.honestParties()
	honestSet := make(map[sim.PartyID]bool, len(honest))
	for _, p := range honest {
		honestSet[p] = true
	}
	res, runErr := async.Run(async.Config{
		N: cr.cell.N, Honest: honestSet, Scheduler: sched, MaxDeliveries: budget,
	}, machines)
	if runErr != nil {
		if res == nil {
			add("engine", "async run failed: %v", runErr)
			return out, 0, 0
		}
		// The runtime returns its partial Result alongside ErrNotDecided, so
		// the remaining invariants still evaluate against what did decide.
		add("async-termination", "honest parties undecided within %d deliveries: %v", budget, runErr)
	}

	outputs := make(map[sim.PartyID]tree.VertexID)
	for _, p := range honest {
		raw, ok := res.Outputs[p]
		if !ok {
			continue // async-termination already reported
		}
		v, ok := raw.(tree.VertexID)
		if !ok {
			add("engine", "party %d output is %T, not a vertex", p, raw)
			continue
		}
		outputs[p] = v
	}
	cr.judgeOutputs(outputs, "async-", add)

	out = append(out, cr.checkAsyncPaths(name, honest, pipes)...)
	out = append(out, cr.checkAsyncHull(name, honest, pipes)...)
	return out, res.Deliveries, res.Depth
}

// checkAsyncPaths asserts Lemma 4 on the pipelines' decoded root paths:
// pairwise one is a prefix of the other with length difference at most 1.
// Trivial trees (diameter <= 1) never decode a path and are skipped.
func (cr *compiled) checkAsyncPaths(name string, honest []sim.PartyID, pipes map[sim.PartyID]*async.Pipeline) []Violation {
	spec := cr.cell.String()
	var out []Violation
	var paths [][]tree.VertexID
	var owners []sim.PartyID
	for _, p := range honest {
		path := pipes[p].Path()
		if path == nil {
			continue // trivial tree, or undecided (already reported)
		}
		if err := cr.tr.ValidatePath(path); err != nil {
			out = append(out, Violation{Cell: spec, Invariant: "async-paths",
				Detail: fmt.Sprintf("scheduler %s: party %d holds an invalid path: %v", name, p, err)})
			continue
		}
		if path[0] != cr.tr.Root() {
			out = append(out, Violation{Cell: spec, Invariant: "async-paths",
				Detail: fmt.Sprintf("scheduler %s: party %d path does not start at the root", name, p)})
		}
		paths = append(paths, path)
		owners = append(owners, p)
	}
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			a, b := paths[i], paths[j]
			if len(a) > len(b) {
				a, b = b, a
			}
			bad := len(b)-len(a) > 1
			for k := 0; !bad && k < len(a); k++ {
				bad = a[k] != b[k]
			}
			if bad {
				out = append(out, Violation{Cell: spec, Invariant: "async-paths",
					Detail: fmt.Sprintf("scheduler %s: parties %d and %d hold paths %s and %s (want prefix-equal up to one trailing edge)",
						name, owners[i], owners[j], cr.tr.RenderPath(paths[i]), cr.tr.RenderPath(paths[j]))})
			}
		}
	}
	return out
}

// checkAsyncHull asserts, for each pipeline phase, epsilon-agreement of the
// honest parties' final AA values (epsilon = 1 for both phases) and monotone
// non-expansion of the honest-value interval across completed iterations —
// the async counterparts of the synchronous checker's hull cell.
func (cr *compiled) checkAsyncHull(name string, honest []sim.PartyID, pipes map[sim.PartyID]*async.Pipeline) []Violation {
	spec := cr.cell.String()
	var out []Violation
	for _, ph := range []struct {
		key  string
		hist func(p *async.Pipeline) []float64
	}{
		{"pathsfinder", func(p *async.Pipeline) []float64 { pf, _ := p.Histories(); return pf }},
		{"projection", func(p *async.Pipeline) []float64 { _, pj := p.Histories(); return pj }},
	} {
		var hists [][]float64
		minLen := math.MaxInt
		for _, p := range honest {
			h := ph.hist(pipes[p])
			if h == nil {
				continue
			}
			hists = append(hists, h)
			minLen = min(minLen, len(h))
		}
		if len(hists) == 0 || minLen == 0 {
			continue
		}
		interval := func(k int) (lo, hi float64) {
			lo, hi = math.Inf(1), math.Inf(-1)
			for _, h := range hists {
				lo, hi = math.Min(lo, h[k]), math.Max(hi, h[k])
			}
			return lo, hi
		}
		prevLo, prevHi := interval(0)
		for k := 1; k < minLen; k++ {
			lo, hi := interval(k)
			if lo < prevLo-hullEps || hi > prevHi+hullEps {
				out = append(out, Violation{Cell: spec, Invariant: "async-hull",
					Detail: fmt.Sprintf("scheduler %s: phase %s: honest interval [%g, %g] after iteration %d not contained in [%g, %g]",
						name, ph.key, lo, hi, k+1, prevLo, prevHi)})
				break
			}
			prevLo, prevHi = lo, hi
		}
		// Epsilon-agreement on each phase's decided values: parties that
		// completed every iteration hold final values within epsilon = 1.
		var finals []float64
		for _, h := range hists {
			if len(h) == minLen {
				finals = append(finals, h[minLen-1])
			}
		}
		for i := range finals {
			for j := i + 1; j < len(finals); j++ {
				if math.Abs(finals[i]-finals[j]) > 1+hullEps {
					out = append(out, Violation{Cell: spec, Invariant: "async-epsilon",
						Detail: fmt.Sprintf("scheduler %s: phase %s: final values %g and %g differ by more than epsilon = 1",
							name, ph.key, finals[i], finals[j])})
				}
			}
		}
	}
	return out
}

// asyncMachines builds fresh machines for one run: honest parties get the
// space's async machine (pipes holds its pipeline on the protocol tree);
// Byzantine ids get behaviors mapped from the cell's clauses, assigned
// round-robin. The returned budget is the honest pipelines'
// delivery budget plus slack for the flood machines' bounded spam.
func (cr *compiled) asyncMachines() ([]async.Machine, map[sim.PartyID]*async.Pipeline, int, error) {
	n := cr.cell.N
	machines := make([]async.Machine, n)
	pipes := make(map[sim.PartyID]*async.Pipeline, n)
	budget := 64
	rng := rand.New(rand.NewSource(cr.cell.Seed ^ 0x62797a61))
	behaviors := asyncBehaviors(cr.cell)
	floods := 0
	for i := 0; i < n; i++ {
		p := sim.PartyID(i)
		if !cr.corrupt[p] {
			m, pipe, err := cr.space.NewAsyncMachine(n, cr.cell.T, p, cr.inputs[i])
			if err != nil {
				return nil, nil, 0, err
			}
			machines[i], pipes[p] = m, pipe
			budget = max(budget, pipe.DeliveryBudget())
			continue
		}
		switch behaviors[i%len(behaviors)] {
		case "silent":
			machines[i] = asyncSilent{}
		case "crash":
			m, _, err := cr.space.NewAsyncMachine(n, cr.cell.T, p, cr.inputs[i])
			if err != nil {
				return nil, nil, 0, err
			}
			machines[i] = &asyncCrash{inner: m, left: 1 + rng.Intn(2*n*n)}
		default: // every value-injecting clause floods
			machines[i] = &asyncFlood{
				id: p, n: n,
				rng:    rand.New(rand.NewSource(cr.cell.Seed + int64(1000*i))),
				budget: asyncFloodBudget,
				maxVal: float64(2 * cr.tr.NumVertices()),
			}
			floods++
		}
	}
	// Each flood emission reaches at most n recipients, each a delivery.
	budget += floods * (asyncFloodBudget + 1) * n
	return machines, pipes, budget, nil
}

// asyncBehaviors maps the cell's Byzantine clauses to async behavior names
// (a link fault maps to none: the in-process run has no links); a corrupted
// party with no clause to draw from is silent.
func asyncBehaviors(c *Cell) []string {
	var out []string
	for _, cl := range c.Clauses {
		switch {
		case cli.IsLinkFault(cl.Name):
		case cl.Name == "silent" || cl.Name == "crash":
			out = append(out, cl.Name)
		default:
			out = append(out, "flood")
		}
	}
	if len(out) == 0 {
		out = []string{"silent"}
	}
	return out
}

// asyncFloodBudget bounds one flood machine's emissions: enough to outlast
// every honest iteration, small enough to stay inside the delivery slack.
const asyncFloodBudget = 500

// asyncSilent is the crash-at-start behavior: it never sends. Output is
// vacuously true so a nil Honest map cannot wedge on it.
type asyncSilent struct{}

func (asyncSilent) Init() []async.Message                 { return nil }
func (asyncSilent) Deliver(async.Message) []async.Message { return nil }
func (asyncSilent) Output() (any, bool)                   { return nil, true }

// asyncCrash is the mid-protocol crash behavior: an honest pipeline that
// stops participating after a seed-derived number of deliveries.
type asyncCrash struct {
	inner async.Machine
	left  int
}

func (m *asyncCrash) Init() []async.Message {
	if m.left <= 0 {
		return nil
	}
	return m.inner.Init()
}

func (m *asyncCrash) Deliver(msg async.Message) []async.Message {
	if m.left <= 0 {
		return nil
	}
	m.left--
	return m.inner.Deliver(msg)
}

func (m *asyncCrash) Output() (any, bool) { return nil, true }

// asyncFlood is the generic value-injecting behavior: equivocating phase-1
// value broadcasts at Init, then a bounded stream of RBC spam — junk values
// in both phases, witness reports that are under-filled or whose sender
// sets are unsorted, duplicated or out of range (the checks a receiver runs
// before it stores anything) — mirroring the model-sound traffic a Byzantine
// sender can put on its authenticated links.
type asyncFlood struct {
	id     sim.PartyID
	n      int
	rng    *rand.Rand
	budget int
	maxVal float64
}

func (m *asyncFlood) Init() []async.Message {
	out := make([]async.Message, 0, m.n)
	for to := 0; to < m.n; to++ {
		out = append(out, async.Message{To: sim.PartyID(to), Payload: wire.AsyncValue{
			Phase: async.PhasePathsFinder, Kind: async.KindInit, Iter: 1, Src: m.id, Val: m.rng.Float64() * m.maxVal,
		}})
	}
	return out
}

func (m *asyncFlood) Deliver(async.Message) []async.Message {
	if m.budget <= 0 {
		return nil
	}
	m.budget--
	phase := byte(1 + m.rng.Intn(2))
	k := 1 + m.rng.Intn(4)
	switch m.rng.Intn(3) {
	case 0: // equivocating / out-of-range value traffic
		return []async.Message{{To: sim.PartyID(m.rng.Intn(m.n)), Payload: wire.AsyncValue{
			Phase: phase, Kind: byte(1 + m.rng.Intn(3)), Iter: k, Src: m.id,
			Val: m.rng.Float64()*3*m.maxVal - m.maxVal,
		}}}
	case 1: // malformed witness report
		bad := [][]sim.PartyID{{1, 0}, {0, 0, 1}, {0, 1, sim.PartyID(m.n)}}[m.rng.Intn(3)]
		return []async.Message{{To: async.Broadcast, Payload: wire.AsyncReport{
			Phase: phase, Kind: async.KindInit, Iter: k, Src: m.id, Senders: bad,
		}}}
	default: // under-filled but well-formed witness report
		return []async.Message{{To: async.Broadcast, Payload: wire.AsyncReport{
			Phase: phase, Kind: async.KindInit, Iter: k, Src: m.id, Senders: []sim.PartyID{0},
		}}}
	}
}

func (m *asyncFlood) Output() (any, bool) { return nil, true }
