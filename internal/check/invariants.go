package check

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"treeaa/internal/core"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Violation is one invariant failure in one cell.
type Violation struct {
	// Cell is the violating cell's one-line spec.
	Cell string `json:"cell"`
	// Invariant names the broken property: termination, rounds, validity,
	// agreement, collapse, hull, suspicion, exclusion, paths, differential-concurrent,
	// differential-tcp, engine.
	Invariant string `json:"invariant"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Cell, v.Detail)
}

// hullEps absorbs float rounding in the non-expansion comparison: trimmed
// midpoints are IEEE means of member values, so genuine expansion is never
// this small.
const hullEps = 1e-9

// honestParties returns the fully honest set: neither Byzantine nor
// omission-faulty (omission parties follow the protocol but their outputs
// carry no guarantees, per sim.OutboxFilter).
func (cr *compiled) honestParties() []sim.PartyID {
	out := make([]sim.PartyID, 0, cr.cell.N)
	for i := 0; i < cr.cell.N; i++ {
		if !cr.corrupt[sim.PartyID(i)] {
			out = append(out, sim.PartyID(i))
		}
	}
	return out
}

// judgeOutputs evaluates the two output invariants shared by the lock-step
// and asynchronous runs, reported as prefix+"validity" and
// prefix+"agreement". Parties missing from outputs are skipped (termination
// is the caller's to report).
func (cr *compiled) judgeOutputs(outputs map[sim.PartyID]tree.VertexID,
	prefix string, add func(invariant, format string, args ...any)) {
	// Validity: the tree hull for tree cells, the geodesic hull for graph
	// cells. Agreement: distance 1 on trees and block graphs; graphs with
	// cycle blocks relax to a shared block (adjacent block-cut-tree decisions
	// decode into one biconnected component), per the Alistarh–Ellen–Rybicki
	// cycle impossibility.
	_, validity, agreement := cr.space.Judge(cr.inputs, cr.corrupt, outputs)
	for _, v := range validity {
		add(prefix+"validity", "%s", v)
	}
	for _, v := range agreement {
		add(prefix+"agreement", "%s", v)
	}
}

// evaluate runs every per-execution invariant against the sequential oracle
// run. res/runErr are sim.Run's outcome; cores and probes index the
// machines by party.
func (cr *compiled) evaluate(res *sim.Result, runErr error, cores []*core.Machine, probes []*probeMachine) []Violation {
	spec := cr.cell.String()
	var out []Violation
	add := func(invariant, format string, args ...any) {
		out = append(out, Violation{Cell: spec, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
	if runErr != nil {
		if errors.Is(runErr, sim.ErrNotDone) {
			add("termination", "honest machines not done within %d rounds", cr.budget())
		} else {
			add("engine", "execution failed: %v", runErr)
		}
		return out
	}
	honest := cr.honestParties()

	// Termination and the round budget: every honest party outputs, within
	// core.Rounds at the cell's own t (+2 processing rounds).
	for _, p := range honest {
		if _, ok := res.Outputs[p]; !ok {
			add("termination", "honest party %d produced no output", p)
		}
	}
	if budget := cr.budget(); res.Rounds > budget {
		add("rounds", "execution used %d rounds, budget %d", res.Rounds, budget)
	}

	outputs := make(map[sim.PartyID]tree.VertexID)
	for _, p := range honest {
		if v, ok := res.Outputs[p]; ok {
			outputs[p] = v.(tree.VertexID)
		}
	}
	cr.judgeOutputs(outputs, "", add)

	out = append(out, cr.checkCollapse(honest, cores)...)
	out = append(out, cr.checkPaths(honest, cores)...)
	out = append(out, cr.checkHull(honest, cores)...)
	out = append(out, cr.checkDetection(honest, probes)...)
	return out
}

// checkCollapse asserts the one-fault collapse (DESIGN §3): with t <= 1 both
// RealAA phases end in exact agreement, so every honest TreeAA output is the
// same protocol-tree vertex. It reads the core machines, so graph cells are
// judged on the block-cut tree node — the local decode may legitimately pick
// different vertices of one clique. Trivial spaces (D <= 1, zero rounds) run
// no RealAA: every party keeps its own input.
func (cr *compiled) checkCollapse(honest []sim.PartyID, cores []*core.Machine) []Violation {
	if cr.cell.T > 1 || core.Rounds(cr.tr, cr.cell.T) == 0 {
		return nil
	}
	var out []Violation
	first, firstOwner := tree.VertexID(0), sim.PartyID(-1)
	for _, p := range honest {
		v, done := cores[p].Output()
		if !done {
			continue // termination violation already reported
		}
		if firstOwner < 0 {
			first, firstOwner = v.(tree.VertexID), p
		} else if v.(tree.VertexID) != first {
			out = append(out, Violation{Cell: cr.cell.String(), Invariant: "collapse",
				Detail: fmt.Sprintf("t = %d but parties %d and %d decide protocol-tree vertices %s and %s (want exact agreement)",
					cr.cell.T, firstOwner, p, cr.tr.Label(first), cr.tr.Label(v.(tree.VertexID)))})
		}
	}
	return out
}

// checkPaths asserts PathsFinder's trailing-edge agreement (Lemma 4): every
// honest party's path is root-anchored and valid, and pairwise one path is a
// prefix of the other with length difference at most 1. Only meaningful when
// PathsFinder actually ran (nontrivial non-path trees).
func (cr *compiled) checkPaths(honest []sim.PartyID, cores []*core.Machine) []Violation {
	spec := cr.cell.String()
	var out []Violation
	var paths [][]tree.VertexID
	var owners []sim.PartyID
	for _, p := range honest {
		if cores[p].PathsFinderMachine() == nil {
			return nil // shortcut or trivial mode: no paths to compare
		}
		path := cores[p].Path()
		if path == nil {
			continue // termination violation already reported
		}
		if err := cr.tr.ValidatePath(path); err != nil {
			out = append(out, Violation{Cell: spec, Invariant: "paths",
				Detail: fmt.Sprintf("party %d holds an invalid path: %v", p, err)})
			continue
		}
		if path[0] != cr.tr.Root() {
			out = append(out, Violation{Cell: spec, Invariant: "paths",
				Detail: fmt.Sprintf("party %d path does not start at the root", p)})
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
				out = append(out, Violation{Cell: spec, Invariant: "paths",
					Detail: fmt.Sprintf("parties %d and %d hold paths %s and %s (want prefix-equal up to one trailing edge)",
						owners[i], owners[j], cr.tr.RenderPath(paths[i]), cr.tr.RenderPath(paths[j]))})
			}
		}
	}
	return out
}

// realInstances returns the RealAA sub-executions of one machine, keyed by
// phase.
func realInstances(m *core.Machine) map[string]*realaa.Machine {
	out := map[string]*realaa.Machine{}
	if pf := m.PathsFinderMachine(); pf != nil {
		out[phasePathsFind] = pf.RealAA()
	}
	if known := m.PathAAMachine(); known != nil {
		out[phasePathAA] = known.RealAA()
	}
	return out
}

// checkHull asserts monotone non-expansion of the honest-value interval
// across the iterations of every RealAA instance: the interval spanned by
// honest values after iteration k+1 is contained in the iteration-k
// interval. Skipped under adaptive corruption (a crash clause): a party that
// is honest for the first iterations and corrupted later contributes early
// values the final honest set never held, so the per-iteration honest
// interval is not well-defined.
func (cr *compiled) checkHull(honest []sim.PartyID, cores []*core.Machine) []Violation {
	if cr.adaptive {
		return nil
	}
	spec := cr.cell.String()
	var out []Violation
	for _, key := range []string{phasePathsFind, phasePathAA} {
		var hists [][]float64
		minLen := math.MaxInt
		for _, p := range honest {
			inst := realInstances(cores[p])[key]
			if inst == nil {
				continue
			}
			h := inst.History()
			hists = append(hists, h)
			if len(h) < minLen {
				minLen = len(h)
			}
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
				out = append(out, Violation{Cell: spec, Invariant: "hull",
					Detail: fmt.Sprintf("phase %s: honest interval [%g, %g] after iteration %d not contained in [%g, %g]",
						key, lo, hi, k+1, prevLo, prevHi)})
				break
			}
			prevLo, prevHi = lo, hi
		}
	}
	return out
}

// checkDetection asserts two properties of the burn rule from the per-round
// probe snapshots: suspicion and exclusion sets grow monotonically ("once
// burned, always burned"), and no honest party is ever globally excluded
// (an exclusion needs t+1 suspicion sets, hence an honest witness).
// The exclusion half is skipped under the out-of-model evil machine bug,
// which rewrites honest traffic.
func (cr *compiled) checkDetection(honest []sim.PartyID, probes []*probeMachine) []Violation {
	if probes == nil {
		return nil
	}
	spec := cr.cell.String()
	honestSet := make(map[sim.PartyID]bool, len(honest))
	for _, p := range honest {
		honestSet[p] = true
	}
	var out []Violation
	for _, p := range honest {
		prev := map[string]probeSets{}
		for _, rec := range probes[p].recs {
			for key, sets := range rec.sets {
				if old, ok := prev[key]; ok {
					for _, pair := range []struct {
						name     string
						old, new map[sim.PartyID]bool
					}{
						{"suspicion", old.suspected, sets.suspected},
						{"exclusion", old.ignored, sets.ignored},
					} {
						for q := range pair.old {
							if !pair.new[q] {
								out = append(out, Violation{Cell: spec, Invariant: "suspicion",
									Detail: fmt.Sprintf("party %d phase %s: %s of %d revoked (once burned, always burned)",
										p, key, pair.name, q)})
							}
						}
					}
				}
				prev[key] = sets
				if !cr.hasEvil {
					var excludedHonest []int
					for q := range sets.ignored {
						if honestSet[q] {
							excludedHonest = append(excludedHonest, int(q))
						}
					}
					if len(excludedHonest) > 0 {
						sort.Ints(excludedHonest)
						out = append(out, Violation{Cell: spec, Invariant: "exclusion",
							Detail: fmt.Sprintf("party %d phase %s: honest parties %v globally excluded",
								p, key, excludedHonest)})
					}
				}
			}
		}
	}
	return dedupe(out)
}

// dedupe collapses identical violations (monotonicity breaks repeat every
// subsequent round).
func dedupe(vs []Violation) []Violation {
	seen := map[string]bool{}
	out := vs[:0]
	for _, v := range vs {
		k := v.Invariant + "|" + v.Detail
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}
