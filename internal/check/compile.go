package check

import (
	"fmt"
	"strings"

	"treeaa/internal/chaos"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// compiled is a cell materialized against concrete protocol objects. The
// adversary and machines are built fresh per run (strategies and machines
// hold state), so compiled only fixes the static facts: the input space,
// the inputs and the corrupted-set partition.
type compiled struct {
	cell  *Cell
	space *cli.Space
	// tr is the protocol tree: the input space itself for tree cells, the
	// graph's block-cut tree for graph cells. Round budgets, PathsFinder
	// paths and every core probe surface live here; input-space semantics
	// (validity hulls, agreement distance) go through space instead.
	tr     *tree.Tree
	inputs []tree.VertexID

	// advSpec is the cell's adversary in the cli language: its clauses with
	// evil replaced by "none", so each keeps its position.
	advSpec  string
	corrupt  map[sim.PartyID]bool // every faulty party, Byzantine and omission
	adaptive bool                 // a clause corrupts mid-run (crash)
	plan     *chaos.Plan          // the link clauses, injected under the TCP run

	hasEvil bool // every honest machine runs under evilMachine
	evilVal float64
}

// compile validates the cell and fixes its static facts; the corrupted set
// and its omission/Byzantine split are the adversary language's.
func compile(c *Cell) (*compiled, error) {
	space, err := cli.ParseSpaceSpec(c.Tree, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if c.N < 1 {
		return nil, fmt.Errorf("check: n = %d, want >= 1", c.N)
	}
	if c.T < 0 || 3*c.T >= c.N {
		return nil, fmt.Errorf("check: t = %d, want 0 <= 3t < n = %d", c.T, c.N)
	}
	cr := &compiled{cell: c, space: space, tr: space.ProtocolTree()}
	if c.Inputs == nil {
		cr.inputs = space.SpreadInputs(c.N)
	} else {
		if len(c.Inputs) != c.N {
			return nil, fmt.Errorf("check: %d inputs for n = %d", len(c.Inputs), c.N)
		}
		for _, v := range c.Inputs {
			if !space.Valid(v) {
				return nil, fmt.Errorf("check: input vertex %d outside space %s", int(v), c.Tree)
			}
		}
		cr.inputs = c.Inputs
	}

	advs := make([]string, len(c.Clauses))
	for i, cl := range c.Clauses {
		advs[i] = cl.String()
		switch cli.KindOf(cl.Name) {
		case cli.KindPlanted:
			advs[i] = "none"
			cr.hasEvil = true
			a := &cli.Reader{Clause: cl}
			if cr.evilVal = float64(a.Int("val", 1000000)); a.Err != nil {
				return nil, a.Err
			}
		case cli.KindModifier:
		default:
			if c.T == 0 && !cli.IsLinkFault(cl.Name) {
				return nil, fmt.Errorf("check: adversary clauses with t = 0 (only evil, mutate and link faults may stand alone)")
			}
			cr.adaptive = cr.adaptive || cli.IsAdaptive(cl.Name)
		}
	}
	cr.advSpec = "none"
	if len(advs) > 0 {
		cr.advSpec = strings.Join(advs, "+")
	}
	if _, cr.corrupt, err = space.BuildAdversary(cr.advSpec, c.N, c.T, c.Seed); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if cr.plan, err = chaos.NewPlan(cr.advSpec, c.N); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return cr, nil
}

// adversary builds a fresh adversary instance for one run (strategies hold
// per-iteration state, so every driver needs its own). nil means no
// adversary.
func (cr *compiled) adversary() (sim.Adversary, error) {
	adv, _, err := cr.space.BuildAdversary(cr.advSpec, cr.cell.N, cr.cell.T, cr.cell.Seed)
	return adv, err
}

// machines builds fresh machines for one run (TreeAA machines for tree
// cells, graph machines delegating to their inner TreeAA instance for graph
// cells), each under evilMachine when the cell plants it; when probe is set
// they are wrapped in per-round invariant probes.
// cores always holds the underlying core machines for post-run inspection.
func (cr *compiled) machines(probe bool) (ms []sim.Machine, cores []*core.Machine, probes []*probeMachine, err error) {
	ms = make([]sim.Machine, cr.cell.N)
	cores = make([]*core.Machine, cr.cell.N)
	for i := 0; i < cr.cell.N; i++ {
		m, cm, err := cr.space.NewMachine(cr.cell.N, cr.cell.T, sim.PartyID(i), cr.inputs[i])
		if err != nil {
			return nil, nil, nil, fmt.Errorf("check: %w", err)
		}
		cores[i] = cm
		if cr.hasEvil {
			m = &evilMachine{Machine: m, val: cr.evilVal}
		}
		if probe {
			p := &probeMachine{m: m, inner: cm}
			probes = append(probes, p)
			ms[i] = p
		} else {
			ms[i] = m
		}
	}
	return ms, cores, probes, nil
}

// budget is the cell's round budget: the schedule of its own fault budget
// (not the ceiling over all t) plus the two processing rounds, so a t <= 1
// cell that overran the collapsed schedule is a violation.
func (cr *compiled) budget() int { return core.Rounds(cr.tr, cr.cell.T) + 2 }

// config assembles the sim.Config for one run with a fresh adversary.
func (cr *compiled) config() (sim.Config, error) {
	adv, err := cr.adversary()
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		N: cr.cell.N, MaxCorrupt: cr.cell.T,
		MaxRounds: cr.budget(),
		Adversary: adv,
	}, nil
}
