// Command adversary-eval regenerates experiments E1, E1b, E4 and E6: it runs the
// real-valued protocols (RealAA with gradecast detection, DLPSW without)
// and full TreeAA under every adversary strategy, reporting correctness
// (validity + agreement), measured convergence, and the detection ablation.
package main

import (
	"flag"
	"fmt"
	"os"

	"treeaa/internal/cli"
	"treeaa/internal/experiments"
)

func main() {
	var (
		nFlag = flag.Int("n", 10, "number of parties")
		tFlag = flag.Int("t", 3, "Byzantine budget (t < n/3)")
		dFlag = flag.Float64("d", 1e6, "honest input spread for the real-valued ablation")
		spec  = flag.String("tree", "path:256", "tree spec for the TreeAA matrix")
		seed  = flag.Int64("seed", 1, "noise adversary seed")
		csv   = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()
	if err := run(*nFlag, *tFlag, *dFlag, *spec, *seed, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "adversary-eval:", err)
		os.Exit(1)
	}
}

func run(n, t int, d float64, spec string, seed int64, csv bool) error {
	e1rows, err := experiments.E1RoundsSweep(n, t, []float64{10, 1e3, d})
	if err != nil {
		return err
	}
	e1Tab := experiments.E1Table(e1rows)
	e1bTab := experiments.E1bRoundsByT([]int{0, 1, 2, 5}, []float64{10, 1e2, 1e4, 1e6})

	ablation, err := experiments.E4DetectAblation(n, t, d)
	if err != nil {
		return err
	}
	realTab := experiments.E4Table(ablation)

	tr, err := cli.ParseTreeSpec(spec, seed)
	if err != nil {
		return err
	}
	matrix, err := experiments.E6Matrix(tr, n, t, seed)
	if err != nil {
		return err
	}
	treeTab := experiments.E6Table(matrix)

	if csv {
		if err := e1Tab.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := e1bTab.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if err := realTab.WriteCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return treeTab.WriteCSV(os.Stdout)
	}
	fmt.Printf("E1 — RealAA fixed schedule vs Theorem 3 formula: n=%d t=%d eps=1\n\n", n, t)
	fmt.Print(e1Tab.String())
	fmt.Println()
	fmt.Println("E1b — RealAA schedule rounds by fault budget t (t <= 1: one-fault collapse; t >= 2: Theorem 3 + margin)")
	fmt.Println()
	fmt.Print(e1bTab.String())
	fmt.Println()
	fmt.Printf("E4 — detection ablation on real values: n=%d t=%d D=%g eps=1\n", n, t, d)
	fmt.Println("(budget = fixed worst-case rounds; measured = rounds until honest range <= eps under attack)")
	fmt.Println()
	fmt.Print(realTab.String())
	fmt.Println()
	fmt.Printf("E1/E6 — TreeAA correctness matrix on %s: n=%d t=%d\n", spec, n, t)
	fmt.Println()
	fmt.Print(treeTab.String())
	return nil
}
