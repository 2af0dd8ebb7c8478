// Package check is the property-based protocol checker: it generates random
// execution cells — a tree, an input placement and a composed randomized
// adversary — runs TreeAA through the internal/sim engine, and evaluates the
// paper's invariants per round. Violating cells are minimized by a greedy
// shrinker to a one-line repro spec that cmd/check replays deterministically.
//
// A cell spec is a single line:
//
//	s=3;tree=caterpillar:4:2;n=7;t=2;in=spread;adv=splitvote(per=1)+noise(maxval=24)
//	s=5;tree=graph:cliquechain:3:4;n=7;t=2;in=spread;adv=equivocator(hi=1000,lo=-100)
//	s=1;tree=path:16;n=4;t=1;in=spread;adv=splitvote+lat(base=1ms,jitter=1ms)+drop(from=0,to=2,round=2)
//
// Fields are semicolon-separated: the seed, the input space tree= (the
// -tree grammar of cli.ParseSpaceSpec: a tree, or a "graph:"-prefixed block
// graph whose machines run TreeAA on the block-cut tree and decode locally),
// the party count n, the fault budget t, the input placement ("spread" or
// dot-separated vertex ids, one per party) and the adversary adv= in the
// adversary language of internal/cli — its "mutate" modifier byte-mutates
// the Byzantine parties' sends, which is model-sound, and its link faults
// (lat, stall, drop, part) act under the TCP run only — plus one clause of
// the checker's own: "evil", a planted machine bug that makes every honest
// party gradecast a fixed value (deliberately out of model; never
// generated, only injected to exercise the checker itself). cli's table
// declares evil's argument, and BuildAdversary refuses it. Everything
// randomized in a cell derives from the seed, so a spec reproduces its
// execution exactly.
package check

import (
	"fmt"
	"strconv"
	"strings"

	"treeaa/internal/cli"
	"treeaa/internal/tree"
)

// Cell is one point of the checker's search space.
type Cell struct {
	// Seed drives every randomized component (tree generation for
	// random:K specs, input placement, noise and mutation PRNGs).
	Seed int64
	// Tree is the input space in cli.ParseSpaceSpec syntax: a tree, or a
	// "graph:"-prefixed block graph.
	Tree string
	// N is the party count, T the fault budget (3T < N).
	N, T int
	// Inputs is the explicit input placement (one vertex per party);
	// nil means cli.SpreadInputs.
	Inputs []tree.VertexID
	// Clauses compose the adversary and the planted evil bug; empty means
	// neither.
	Clauses []cli.Clause
}

// String renders the cell as its canonical one-line spec.
func (c *Cell) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s=%d;tree=%s;n=%d;t=%d;in=", c.Seed, c.Tree, c.N, c.T)
	if c.Inputs == nil {
		b.WriteString("spread")
	} else {
		for i, v := range c.Inputs {
			if i > 0 {
				b.WriteByte('.')
			}
			fmt.Fprintf(&b, "%d", int(v))
		}
	}
	if len(c.Clauses) > 0 {
		b.WriteString(";adv=")
		for i, cl := range c.Clauses {
			if i > 0 {
				b.WriteByte('+')
			}
			b.WriteString(cl.String())
		}
	}
	return b.String()
}

// Parse decodes a one-line cell spec (the inverse of Cell.String).
func Parse(spec string) (*Cell, error) {
	c := &Cell{Seed: -1, N: -1, T: -1}
	sawIn := false
	for _, field := range strings.Split(strings.TrimSpace(spec), ";") {
		key, val, found := strings.Cut(field, "=")
		if !found {
			return nil, fmt.Errorf("check: field %q: want key=value", field)
		}
		var err error
		switch key {
		case "s":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		case "tree":
			c.Tree = val
		case "n":
			c.N, err = strconv.Atoi(val)
		case "t":
			c.T, err = strconv.Atoi(val)
		case "in":
			sawIn = true
			if val != "spread" {
				for _, p := range strings.Split(val, ".") {
					v, verr := strconv.Atoi(p)
					if verr != nil || v < 0 {
						return nil, fmt.Errorf("check: input %q: want vertex id", p)
					}
					c.Inputs = append(c.Inputs, tree.VertexID(v))
				}
			}
		case "adv":
			if val != "none" {
				c.Clauses, err = cli.ParseAdversary(val)
			}
		default:
			return nil, fmt.Errorf("check: unknown field %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("check: field %q: %v", field, err)
		}
	}
	if c.Seed < 0 || c.Tree == "" || c.N < 0 || c.T < 0 || !sawIn {
		return nil, fmt.Errorf("check: spec %q: want all of s, tree, n, t, in", spec)
	}
	return c, nil
}

// MustParse is Parse for compile-time-constant specs in tests.
func MustParse(spec string) *Cell {
	c, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return c
}
