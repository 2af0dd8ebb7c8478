package check

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/tree"
)

// byzPool is the model-sound Byzantine clause pool the generator draws from.
// The out-of-model "evil" machine bug is deliberately absent: it exists
// only to exercise the checker's own violation-and-shrink machinery via
// explicit injection (cmd/check -inject-bad).
var byzPool = []string{"silent", "crash", "equivocator", "splitvote", "halfburn", "noise", "replay", "frame", "exclusionsplit"}

// Generate draws one random cell: a small input space (a tree, or — one in
// four — a block graph), party parameters, an input placement and a composed
// adversary. Everything derives from rng, and the produced cell always
// compiles.
func Generate(rng *rand.Rand) *Cell {
	return GenerateIn(rng, "")
}

// GenerateIn is Generate restricted to one kind of input space: "tree"
// draws only tree cells, "graph" only graph cells, "" mixes both (trees
// three to one).
func GenerateIn(rng *rand.Rand, space string) *Cell {
	for {
		c := generate(rng, space)
		if _, err := compile(c); err == nil {
			return c
		}
	}
}

// Sweep visits the cells a sweep explores, in order: for each seed, budget
// cells drawn by GenerateIn(space) from a generator seeded with it. It stops
// at the first error visit returns and returns it.
func Sweep(seeds []int64, budget int, space string, visit func(*Cell) error) error {
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		for range budget {
			if err := visit(GenerateIn(rng, space)); err != nil {
				return err
			}
		}
	}
	return nil
}

func generate(rng *rand.Rand, space string) *Cell {
	c := &Cell{Seed: rng.Int63n(1 << 31)}
	if space == "graph" || (space == "" && rng.Intn(4) == 0) {
		c.Tree = cli.GraphPrefix + genGraphSpec(rng)
	} else {
		c.Tree = genTreeSpec(rng)
	}
	sp, err := cli.ParseSpaceSpec(c.Tree, c.Seed)
	if err != nil {
		panic(fmt.Sprintf("check: generator produced bad space spec %q: %v", c.Tree, err))
	}
	// Clause arguments (crash schedules, noise/frame value ranges) are drawn
	// against the protocol tree — the input space itself for trees, the
	// block-cut tree for graphs — because that is the tree the protocol's
	// values and rounds live on.
	tr := sp.ProtocolTree()
	c.N = 4 + rng.Intn(6)         // 4..9
	c.T = rng.Intn((c.N-1)/3 + 1) // 0..floor((n-1)/3)
	if rng.Intn(2) == 0 {         // half spread, half random placement
		c.Inputs = make([]tree.VertexID, c.N)
		for i := range c.Inputs {
			c.Inputs[i] = tree.VertexID(rng.Intn(sp.NumVertices()))
		}
	}
	if c.T == 0 {
		return c
	}

	hasOmit := c.T >= 2 && rng.Intn(4) == 0
	nByz := rng.Intn(2) + 1 // 1..2 Byzantine clauses
	if hasOmit {
		nByz = rng.Intn(2) // 0..1 alongside omission
	}
	byzIDCount := c.T
	if hasOmit && nByz > 0 {
		byzIDCount = c.T - c.T/2
	}
	perm := rng.Perm(len(byzPool))
	for _, pi := range perm[:nByz] {
		c.Clauses = append(c.Clauses, genByzClause(rng, byzPool[pi], tr, c.T, byzIDCount))
	}
	if hasOmit {
		c.Clauses = append(c.Clauses, cli.Clause{Name: "omit", Args: map[string]string{
			"drop":   strconv.Itoa(200 + rng.Intn(600)),
			"halves": strconv.Itoa(rng.Intn(2)),
		}})
	}
	if nByz > 0 && rng.Intn(4) == 0 {
		c.Clauses = append(c.Clauses, cli.Clause{Name: "mutate", Args: map[string]string{
			"rate": strconv.Itoa(50 + rng.Intn(400)),
		}})
	}
	return c
}

func genTreeSpec(rng *rand.Rand) string {
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf("path:%d", 2+rng.Intn(9))
	case 1:
		return fmt.Sprintf("star:%d", 3+rng.Intn(7))
	case 2:
		return fmt.Sprintf("caterpillar:%d:%d", 2+rng.Intn(3), 1+rng.Intn(2))
	case 3:
		return fmt.Sprintf("spider:%d:%d", 2+rng.Intn(2), 1+rng.Intn(3))
	case 4:
		return fmt.Sprintf("kary:2:%d", 1+rng.Intn(2))
	case 5:
		return fmt.Sprintf("random:%d", 4+rng.Intn(6))
	default:
		return "figure3"
	}
}

// genGraphSpec draws a small graph input space (internal/graph grammar,
// without the "graph:" prefix): cycles and cliques (single-block extremes),
// clique chains and cacti (multi-block shapes with cut vertices) and seeded
// random block graphs.
func genGraphSpec(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("cycle:%d", 4+rng.Intn(6))
	case 1:
		return fmt.Sprintf("clique:%d", 4+rng.Intn(5))
	case 2:
		return fmt.Sprintf("cliquechain:%d:%d", 2+rng.Intn(2), 2+rng.Intn(3))
	case 3:
		return fmt.Sprintf("cactus:%d:%d", 2+rng.Intn(2), 3+rng.Intn(3))
	default:
		return fmt.Sprintf("randomblock:%d", 8+rng.Intn(7))
	}
}

func genByzClause(rng *rand.Rand, name string, tr *tree.Tree, t, byzIDCount int) cli.Clause {
	cl := cli.Clause{Name: name, Args: map[string]string{}}
	switch name {
	case "crash":
		maxRound := core.Rounds(tr, t) + 1
		rounds := make([]string, byzIDCount)
		for i := range rounds {
			rounds[i] = strconv.Itoa(1 + rng.Intn(maxRound))
		}
		cl.Args["rounds"] = strings.Join(rounds, ".")
	case "equivocator":
		cl.Args["lo"] = strconv.Itoa(-rng.Intn(200))
		cl.Args["hi"] = strconv.Itoa(100 + rng.Intn(10000))
	case "splitvote":
		cl.Args["per"] = strconv.Itoa(1 + rng.Intn(2))
	case "noise":
		cl.Args["maxval"] = strconv.Itoa(tr.NumVertices() + rng.Intn(3*tr.NumVertices()))
	case "replay":
		cl.Args["delay"] = strconv.Itoa(1 + rng.Intn(5))
	case "frame":
		cl.Args["fake"] = strconv.Itoa(rng.Intn(2 * tr.NumVertices()))
	case "exclusionsplit":
		cl.Args["x"] = strconv.Itoa(rng.Intn(byzIDCount))
		cl.Args["s"] = strconv.Itoa(rng.Intn(byzIDCount))
		cl.Args["iter"] = strconv.Itoa(1 + rng.Intn(3))
	}
	if len(cl.Args) == 0 {
		cl.Args = nil
	}
	return cl
}
