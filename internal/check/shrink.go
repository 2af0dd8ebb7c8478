package check

import (
	"strconv"
	"strings"

	"treeaa/internal/cli"
	"treeaa/internal/tree"
)

// Shrink greedily minimizes a violating cell: it tries candidate reductions
// — dropping link clauses, then adversary clauses, shrinking t and n,
// collapsing explicit inputs to the spread placement, shrinking tree-spec
// and clause-arg numbers — and keeps any candidate that still violates (any invariant; a
// shrink may legitimately shift which one fires first). budget caps the
// total number of candidate runs. It returns the smallest violating cell
// found and the number of runs spent; if c itself does not violate it is
// returned unchanged.
func Shrink(c *Cell, opt Options, budget int) (*Cell, int) {
	runs := 0
	current := c.clone()
	improved := true
	for improved && runs < budget {
		improved = false
		for _, cand := range candidates(current) {
			if runs >= budget {
				break
			}
			runs++
			if Violates(cand, opt) {
				current = cand
				improved = true
				break // restart from the reduced cell
			}
		}
	}
	return current, runs
}

func (c *Cell) clone() *Cell {
	out := &Cell{Seed: c.Seed, Tree: c.Tree, N: c.N, T: c.T}
	if c.Inputs != nil {
		out.Inputs = append([]tree.VertexID(nil), c.Inputs...)
	}
	for _, cl := range c.Clauses {
		nc := cli.Clause{Name: cl.Name}
		if cl.Args != nil {
			nc.Args = make(map[string]string, len(cl.Args))
			for k, v := range cl.Args {
				nc.Args[k] = v
			}
		}
		out.Clauses = append(out.Clauses, nc)
	}
	return out
}

// byzClauseIDCount mirrors compile's corrupted-set partition: how many ids
// the Byzantine clauses share for a given t.
func byzClauseIDCount(c *Cell) int {
	hasByz, hasOmit := false, false
	for _, cl := range c.Clauses {
		switch {
		case cl.Name == "omit" || cl.Name == "stop":
			hasOmit = true
		case cl.Name == "mutate" || cl.Name == "evil" || cli.IsLinkFault(cl.Name):
		default:
			hasByz = true
		}
	}
	if !hasByz {
		return 0
	}
	if hasOmit {
		return c.T - c.T/2
	}
	return c.T
}

// candidates returns the next-step reductions of c, most aggressive first.
// Invalid candidates are cheap: compile rejects them and Violates returns
// false.
func candidates(c *Cell) []*Cell {
	var out []*Cell
	// Drop one clause: the link faults first, then the rest.
	for _, link := range []bool{true, false} {
		for i, cl := range c.Clauses {
			if cli.IsLinkFault(cl.Name) == link {
				cand := c.clone()
				cand.Clauses = append(cand.Clauses[:i], cand.Clauses[i+1:]...)
				out = append(out, cand)
			}
		}
	}
	// Collapse explicit inputs to the canonical spread.
	if c.Inputs != nil {
		cand := c.clone()
		cand.Inputs = nil
		out = append(out, cand)
	}
	// Shrink the corruption budget (trimming crash schedules to the new
	// Byzantine id count, which compile validates).
	if c.T > 0 {
		cand := c.clone()
		cand.T--
		nByz := byzClauseIDCount(cand)
		for i, cl := range cand.Clauses {
			if cl.Name == "crash" {
				if rounds, err := cl.IntList("rounds"); err == nil && len(rounds) > nByz {
					cand.Clauses[i].Args["rounds"] = joinInts(rounds[:nByz])
				}
			}
		}
		out = append(out, cand)
	}
	// Shrink the party count.
	if c.N > 2 && c.N-1 > 3*c.T {
		cand := c.clone()
		cand.N--
		if cand.Inputs != nil {
			cand.Inputs = cand.Inputs[:cand.N]
		}
		out = append(out, cand)
	}
	// Shrink spec numbers (halve, then decrement) — tree-spec sizes for tree
	// cells, block counts / block sizes / cycle lengths for graph cells
	// (cliquechain:3:4 prunes blocks, cycle:9 shortens the cycle).
	parts := strings.Split(c.Tree, ":")
	for i := 1; i < len(parts); i++ {
		v, err := strconv.Atoi(parts[i])
		if err != nil {
			continue
		}
		for _, nv := range []int{v / 2, v - 1} {
			if nv < 1 || nv == v {
				continue
			}
			np := append([]string(nil), parts...)
			np[i] = strconv.Itoa(nv)
			cand := c.clone()
			cand.Tree = strings.Join(np, ":")
			// Clamp explicit inputs into the smaller space so a violation
			// that depends on the placement survives the shrink.
			if cand.Inputs != nil {
				sp, err := cli.ParseSpaceSpec(cand.Tree, cand.Seed)
				if err != nil {
					continue
				}
				for j, in := range cand.Inputs {
					if int(in) >= sp.NumVertices() {
						cand.Inputs[j] = tree.VertexID(sp.NumVertices() - 1)
					}
				}
			}
			out = append(out, cand)
		}
	}
	// Halve clause numeric args toward 1 (schedule-shaped lists excluded).
	for i, cl := range c.Clauses {
		for k, v := range cl.Args {
			n, err := strconv.Atoi(v)
			if err != nil || n/2 == n || k == "rounds" || k == "halves" {
				continue
			}
			cand := c.clone()
			cand.Clauses[i].Args[k] = strconv.Itoa(n / 2)
			out = append(out, cand)
		}
	}
	return out
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ".")
}
