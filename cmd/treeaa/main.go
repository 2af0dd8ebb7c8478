// Command treeaa runs approximate agreement on a tree or block graph with a
// chosen adversary and prints the execution: the input space, the party
// inputs, a per-round trace and the honest outputs with their
// hull/agreement check.
//
// Usage:
//
//	treeaa -n 7 -t 2 -tree path:40 -adversary splitvote -seed 1
//	treeaa -tree @map.txt -inputs v3,v6,v5,v8 -n 4 -t 1
//	treeaa -n 4 -t 1 -tree graph:cliquechain:3:4
//	treeaa -n 4 -t 0 -tree path:8 -transport tree:2
//
// -transport picks where the messages travel: mem (sim.Run, in process),
// tcp (transport.LocalCluster, a loopback mesh) or tree[:b]
// (overlay.Cluster, a loopback relay tree with b sub-leaders).
//
// Tree specs: path:K, star:K, spider:LEGS:LEN, caterpillar:SPINE:LEGS,
// kary:K:DEPTH, random:K, figure3, or @FILE with "a - b" edge lines.
// Graph specs: graph:cycle:K, graph:clique:K, graph:cliquechain:B:S,
// graph:cactus:B:L, graph:randomblock:K, graph:@FILE.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/overlay"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

func main() {
	var (
		nFlag     = flag.Int("n", 7, "number of parties")
		tFlag     = flag.Int("t", 2, "Byzantine budget (t < n/3)")
		treeSpec  = flag.String("tree", "path:40", `input space spec: a tree, or a "graph:"-prefixed block graph (see the package doc)`)
		inputSpec = flag.String("inputs", "", "comma-separated input vertex labels (default: spread across the space)")
		advName   = flag.String("adversary", "none", strings.Join(cli.AdversaryNames(), "|"))
		seed      = flag.Int64("seed", 1, "seed for random trees/graphs / noise adversaries")
		quiet     = flag.Bool("q", false, "suppress the space drawing and round trace")
		transName = flag.String("transport", "mem", "mem|tcp|tree[:branching]")
		dotFile   = flag.String("dot", "", "write a Graphviz DOT visualization of the execution to this file")
	)
	flag.Parse()
	if err := run(*nFlag, *tFlag, *treeSpec, *inputSpec, *advName, *seed, *quiet, *transName, *dotFile); err != nil {
		fmt.Fprintln(os.Stderr, "treeaa:", err)
		os.Exit(1)
	}
}

func run(n, t int, treeSpec, inputSpec, advName string, seed int64, quiet bool, transName, dotFile string) error {
	sp, err := cli.ParseSpaceSpec(treeSpec, seed)
	if err != nil {
		return err
	}
	inputs, err := sp.ParseInputs(inputSpec, n)
	if err != nil {
		return err
	}
	adv, corrupt, err := sp.BuildAdversary(advName, n, t, seed)
	if err != nil {
		return err
	}
	var runOn func(sim.Config, []sim.Machine) (*sim.Result, error)
	switch {
	case transName == "mem":
		runOn = sim.Run
	case transName == "tcp":
		runOn = func(cfg sim.Config, ms []sim.Machine) (*sim.Result, error) {
			return transport.LocalCluster(cfg, ms, transport.Options{})
		}
	case strings.HasPrefix(transName, "tree"):
		branching, err := overlay.ParseSpec(transName)
		if err != nil {
			return err
		}
		runOn = func(cfg sim.Config, ms []sim.Machine) (*sim.Result, error) {
			return overlay.Cluster(cfg, ms, overlay.Options{Branching: branching})
		}
	default:
		return fmt.Errorf("unknown transport %q (have mem, tcp, tree[:branching])", transName)
	}

	budget := core.Rounds(sp.ProtocolTree(), t)
	if sp.IsGraph() {
		g := sp.Graph
		fmt.Printf("GraphAA: n=%d t=%d |V|=%d |E|=%d blocks=%d D=%d blockcut=%d nodes budget=%d rounds blockgraph=%v\n",
			n, t, g.NumVertices(), g.NumEdges(), len(g.Blocks()), g.Diameter(),
			g.BlockCutTree().NumVertices(), budget, g.IsBlockGraph())
	} else {
		d, _, _ := sp.Tree.Diameter()
		fmt.Printf("TreeAA: n=%d t=%d |V|=%d D=%d budget=%d rounds\n",
			n, t, sp.NumVertices(), d, budget)
	}
	if !quiet {
		fmt.Println()
		if sp.IsGraph() {
			for i, b := range sp.Graph.Blocks() {
				fmt.Printf("  block %d (%s): {%s}\n", i, b.Kind,
					strings.Join(sp.Graph.Labels(b.Vertices), ", "))
			}
			for i, v := range inputs {
				tag := ""
				if corrupt[sim.PartyID(i)] {
					tag = " (byz)"
				}
				fmt.Printf("  input p%d: %s%s\n", i, sp.Label(v), tag)
			}
		} else {
			marks := map[tree.VertexID]string{}
			for i, v := range inputs {
				tag := fmt.Sprintf("input p%d", i)
				if corrupt[sim.PartyID(i)] {
					tag += " (byz)"
				}
				if prev, ok := marks[v]; ok {
					tag = prev + "; " + tag
				}
				marks[v] = tag
			}
			fmt.Print(sp.Tree.Render(sp.Tree.Root(), marks))
		}
		fmt.Println()
	}

	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, _, err := sp.NewMachine(n, t, sim.PartyID(i), inputs[i])
		if err != nil {
			return err
		}
		machines[i] = m
	}
	var trace sim.Trace
	simCfg := sim.Config{
		N: n, MaxCorrupt: t, MaxRounds: sp.Rounds() + 2,
		Adversary: adv, Trace: &trace,
	}
	res, err := runOn(simCfg, machines)
	if err != nil {
		return err
	}

	if !quiet {
		fmt.Println("round trace:")
		for _, r := range trace.Rounds {
			done := ""
			if len(r.NewlyDone) > 0 {
				done = fmt.Sprintf("  done: %v", r.NewlyDone)
			}
			fmt.Printf("  round %3d: %5d msgs  %7d bytes%s\n", r.Round, r.Messages, r.Bytes, done)
		}
		fmt.Println()
	}

	fmt.Printf("execution: %d rounds, %d messages, %d bytes\n", res.Rounds, res.Messages, res.Bytes)
	var honestIn []tree.VertexID
	for i, v := range inputs {
		if !corrupt[sim.PartyID(i)] {
			honestIn = append(honestIn, v)
		}
	}
	hull := sp.ConvexHull(honestIn)
	hullSet := make(map[tree.VertexID]bool, len(hull))
	for _, v := range hull {
		hullSet[v] = true
	}
	fmt.Printf("honest hull: {%s}\n", strings.Join(sp.Labels(hull), ", "))
	ok := true
	var outs []tree.VertexID
	outputs := make(map[sim.PartyID]tree.VertexID, n)
	for p := sim.PartyID(0); int(p) < n; p++ {
		raw, have := res.Outputs[p]
		switch {
		case corrupt[p]:
			fmt.Printf("  p%-2d BYZANTINE\n", p)
		case have:
			v := raw.(tree.VertexID)
			valid := hullSet[v]
			if !valid {
				ok = false
			}
			fmt.Printf("  p%-2d output %-8s valid=%v\n", p, sp.Label(v), valid)
			outs = append(outs, v)
			outputs[p] = v
		default:
			ok = false
			fmt.Printf("  p%-2d NO OUTPUT\n", p)
		}
	}
	maxDist, _, agreement := sp.Judge(inputs, corrupt, outputs)
	agree := len(agreement) == 0
	guarantee := "1-agreement"
	if sp.IsGraph() && !sp.Graph.IsBlockGraph() {
		guarantee = "per-block agreement"
	}
	fmt.Printf("max pairwise output distance: %d (%s: %v)\n", maxDist, guarantee, agree)
	if dotFile != "" {
		if err := writeDOT(dotFile, sp, inputs, corrupt, hullSet, outs); err != nil {
			return err
		}
		fmt.Printf("wrote %s (render with: dot -Tsvg %s -o out.svg)\n", dotFile, dotFile)
	}
	if !ok || !agree {
		return fmt.Errorf("AA properties violated")
	}
	return nil
}

// dotWriter is the shared DOT surface of trees and graphs.
type dotWriter interface {
	WriteDOT(w io.Writer, name string, attrs map[tree.VertexID]string) error
}

// writeDOT colors the execution: hull vertices light green, inputs outlined,
// outputs gold.
func writeDOT(path string, sp *cli.Space, inputs []tree.VertexID, corrupt map[sim.PartyID]bool, hull map[tree.VertexID]bool, outs []tree.VertexID) error {
	attrs := map[tree.VertexID]string{}
	for v := range hull {
		attrs[v] = `fillcolor="palegreen", style=filled`
	}
	for i, v := range inputs {
		if corrupt[sim.PartyID(i)] {
			continue
		}
		if a, ok := attrs[v]; ok {
			attrs[v] = a + `, penwidth=2`
		} else {
			attrs[v] = `penwidth=2`
		}
	}
	for _, v := range outs {
		attrs[v] = `fillcolor="gold", style=filled, penwidth=2`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var dw dotWriter = sp.Tree
	name := "treeaa"
	if sp.IsGraph() {
		dw, name = sp.Graph, "graphaa"
	}
	return dw.WriteDOT(f, name, attrs)
}
