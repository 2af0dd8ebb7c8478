// Command bench-rounds regenerates experiments E2 and E5: it sweeps tree
// families and sizes, measures TreeAA's and the O(log D) baseline's round
// counts, and prints them next to the theory curves (Theorem 4 and the
// Theorem 2 lower bound) as a table, a CSV (with -csv) and an ASCII figure.
// With -async it appends the E5c asynchronous-depth table and with -exact
// the E5b Dolev–Strong comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"treeaa/internal/experiments"
	"treeaa/internal/metrics"
	"treeaa/internal/tree"
)

func main() {
	var (
		nFlag     = flag.Int("n", 7, "number of parties")
		tFlag     = flag.Int("t", 2, "Byzantine budget (the Theorem 4 shape needs t >= 2: rounds are constant below)")
		csv       = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		family    = flag.String("family", "all", "path|caterpillar|spider|kary|random|all")
		sizes     = flag.String("sizes", "64,256,1024,4096", "comma-separated vertex counts")
		withAsync = flag.Bool("async", false, "append the E5c asynchronous-depth table")
		withExact = flag.Bool("exact", false, "append the E5b Dolev–Strong comparison")
	)
	flag.Parse()
	if err := run(*nFlag, *tFlag, *family, *sizes, *csv, *withAsync, *withExact); err != nil {
		fmt.Fprintln(os.Stderr, "bench-rounds:", err)
		os.Exit(1)
	}
}

func run(n, t int, family, sizeList string, csv, withAsync, withExact bool) error {
	fams := experiments.DefaultFamilies()
	if family != "all" {
		var picked []experiments.Family
		for _, f := range fams {
			if f.Name == family {
				picked = append(picked, f)
			}
		}
		if len(picked) == 0 {
			return fmt.Errorf("unknown family %q", family)
		}
		fams = picked
	}
	sizes, err := splitInts(sizeList)
	if err != nil {
		return err
	}
	rows, err := experiments.E2RoundsSweep(fams, sizes, n, t)
	if err != nil {
		return err
	}
	tab := experiments.E2Table(rows)
	if csv {
		if err := tab.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else {
		fmt.Println("E2/E5 — rounds by tree family and size")
		fmt.Printf("n=%d t=%d; treeaa_norm = rounds/(log2V/loglog2V) should be ~flat (Theorem 4);\n", n, t)
		fmt.Println("baseline_norm = rounds/log2(D) should be ~flat ([33]); lowerbound = Theorem 2 minimal rounds")
		fmt.Println()
		fmt.Print(tab.String())
		seriesFamily := fams[0].Name
		a, b := experiments.E2Series(rows, seriesFamily)
		if len(a.Points) > 1 {
			fmt.Println()
			fmt.Printf("rounds vs log2|V| (%s family):\n", seriesFamily)
			fmt.Print(metrics.RenderASCII(60, 14, a, b))
		}
	}
	if withAsync {
		atab, err := experiments.E5cAsyncDepth(n, t, []int{16, 64, 256})
		if err != nil {
			return err
		}
		fmt.Println("\nE5c — asynchronous NR-style protocol depth (async rounds):")
		if csv {
			return atab.WriteCSV(os.Stdout)
		}
		fmt.Print(atab.String())
	}
	if withExact {
		etab, err := experiments.E5bExactCost(tree.NewPath(64), []int{4, 7, 13})
		if err != nil {
			return err
		}
		fmt.Println("\nE5b — exact agreement via Dolev–Strong (t+1 rounds) vs TreeAA:")
		if csv {
			return etab.WriteCSV(os.Stdout)
		}
		fmt.Print(etab.String())
	}
	return nil
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
