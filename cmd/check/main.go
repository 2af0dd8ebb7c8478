// Command check is the property-based protocol checker: it explores randomly
// generated (tree, inputs, adversary) cells through the simulation engine,
// evaluates per-round invariants (validity, 1-agreement, hull non-expansion,
// burn-rule monotonicity, PathsFinder trailing-edge agreement, round budget)
// and the sequential/concurrent/TCP differential, and on a violation shrinks
// the cell to a minimal one-line repro spec. Every generated cell the TCP
// differential runs on gets one or two link faults (lat, stall, drop, part
// clauses of the adversary language; see internal/chaos) injected under its
// links, which must leave the Result byte-identical to the sequential run.
//
//	check                                  # default budget over seeds 1-3
//	check -seeds 1-5 -budget 200           # 200 cells per seed
//	check -space graph -budget 175         # block-graph cells only
//	check -repro 's=1;tree=star:6;n=9;t=2;in=spread;adv=splitvote(per=1)'
//	check -repro 's=1;tree=graph:cliquechain:3:4;n=7;t=2;in=spread;adv=splitvote(per=1)'
//	check -repro 's=1;tree=path:16;n=4;t=1;in=spread;adv=lat(base=1ms,jitter=1ms)+drop(from=0,to=1,round=2)'
//	check -tcp-every 1 -cells 's=1;tree=path:16;n=4;t=1;in=spread;adv=splitvote+stall(from=1,rounds=2.3,dur=5ms)'
//	check -inject-bad                      # demo: catch + shrink a known-bad adversary
//	check -json -budget 50                 # one JSON object per cell
//	check -async-every 1 -async-budget 0   # async battery on every compatible cell
//
// Async-compatible cells (no omission filtering, no mutate, no planted evil)
// additionally run through the event-driven internal/async runtime under
// every adversarial scheduler, asserting validity, 1-agreement, Lemma-4 path
// agreement, per-phase epsilon-agreement and hull non-expansion — the
// invariants that carry correctness where no round-indexed oracle exists.
//
// Cells are explored deterministically: the same -seeds and -budget always
// visit the same cells. Exit status is 1 if any violation survives, 2 on
// usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"treeaa/internal/check"
)

func main() {
	var (
		seeds       = flag.String("seeds", "1-3", "generator seeds: comma list and/or A-B ranges (e.g. 1,2,5-8)")
		budget      = flag.Int("budget", 50, "cells to explore per seed")
		cells       = flag.String("cells", "", "comma-free ';'-spec cells to run instead of generating ('|'-separated)")
		repro       = flag.String("repro", "", "run exactly one cell spec (as printed by a violation) and exit")
		injectBad   = flag.Bool("inject-bad", false, "inject a known-bad adversary (burn rule blinded) to demo the shrinker")
		shrinkB     = flag.Int("shrink-budget", 200, "candidate runs the shrinker may spend per violation")
		tcpEvery    = flag.Int("tcp-every", 8, "run the TCP differential, under generated link faults, on every Nth cell (0 = never)")
		asyncEvery  = flag.Int("async-every", 4, "run the async-mode battery on every Nth compatible cell (0 = never)")
		asyncBudget = flag.Int("async-budget", 0, "delivery budget per async execution (0 = derive from the pipelines)")
		jsonOut     = flag.Bool("json", false, "emit one JSON object per cell instead of text")
		spaceKind   = flag.String("space", "", `restrict generated cells to one input-space kind: "tree" or "graph" ("" mixes both)`)
	)
	flag.Parse()
	if *spaceKind != "" && *spaceKind != "tree" && *spaceKind != "graph" {
		fmt.Fprintf(os.Stderr, "check: -space %q: want \"\", \"tree\" or \"graph\"\n", *spaceKind)
		os.Exit(2)
	}
	code, err := run(*seeds, *budget, *cells, *repro, *spaceKind, *injectBad, *shrinkB, *tcpEvery, *asyncEvery, *asyncBudget, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "check:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// knownBad is the deliberately broken cell for the -inject-bad demo: the
// planted evil machine bug makes every honest party gradecast one fixed
// value, consistently, so no equivocation is ever observed and the burn
// rule stays silent, while the concentrated input placement puts the
// resulting output outside the honest hull.
const knownBad = "s=1;tree=star:6;n=9;t=2;in=1.1.1.1.1.1.1.1.1;adv=splitvote(per=1)+evil(val=1000000)"

func run(seeds string, budget int, cells, repro, spaceKind string, injectBad bool, shrinkB, tcpEvery, asyncEvery, asyncBudget int, jsonOut bool) (int, error) {
	enc := json.NewEncoder(os.Stdout)
	explored, violated, asyncRan := 0, 0, 0

	// runAsync sends one compatible cell through the event-driven battery;
	// its violations count against the same exit status as the sync ones.
	runAsync := func(c *check.Cell) error {
		res, err := check.RunAsyncCell(c, check.AsyncOptions{Budget: asyncBudget})
		if err != nil {
			return fmt.Errorf("async cell %s: %w", c, err)
		}
		asyncRan++
		if jsonOut {
			enc.Encode(map[string]any{"async": res})
		}
		if len(res.Violations) == 0 {
			return nil
		}
		violated++
		if !jsonOut {
			for _, v := range res.Violations {
				fmt.Println(v)
			}
		}
		return nil
	}

	runOne := func(c *check.Cell, opt check.Options, shrink bool) error {
		res, err := check.RunCell(c, opt)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c, err)
		}
		explored++
		if asyncEvery > 0 && check.AsyncCompatible(c) && explored%asyncEvery == 0 {
			if err := runAsync(c); err != nil {
				return err
			}
		}
		if jsonOut {
			enc.Encode(res)
		}
		if len(res.Violations) == 0 {
			return nil
		}
		violated++
		if !jsonOut {
			for _, v := range res.Violations {
				fmt.Println(v)
			}
		}
		if shrink {
			shrunk, runs := check.Shrink(c, check.Options{}, shrinkB)
			sres, err := check.RunCell(shrunk, check.Options{})
			if err != nil {
				return fmt.Errorf("shrunk cell %s: %w", shrunk, err)
			}
			if jsonOut {
				enc.Encode(map[string]any{"shrunk": sres, "shrinkRuns": runs})
			} else {
				fmt.Printf("shrunk after %d runs to: %s\n", runs, shrunk)
				for _, v := range sres.Violations {
					fmt.Println("  ", v)
				}
				fmt.Printf("re-run with: check -repro '%s'\n", shrunk)
			}
		}
		return nil
	}

	switch {
	case repro != "":
		c, err := check.Parse(repro)
		if err != nil {
			return 0, err
		}
		// The fault schedule the cell's link clauses materialize, four
		// frames per link.
		if schedule, err := check.Schedule(c, 4); err != nil {
			return 0, err
		} else if !jsonOut {
			fmt.Print(schedule)
		}
		if err := runOne(c, check.Options{TCP: tcpEvery > 0}, false); err != nil {
			return 0, err
		}
		// A repro replays the async battery too (when compatible), so a spec
		// printed by an async violation reproduces without extra flags.
		if asyncEvery > 0 && check.AsyncCompatible(c) && explored%asyncEvery != 0 {
			if err := runAsync(c); err != nil {
				return 0, err
			}
		}
	case injectBad:
		c, err := check.Parse(knownBad)
		if err != nil {
			return 0, err
		}
		fmt.Printf("injecting known-bad cell: %s\n", c)
		if err := runOne(c, check.Options{}, true); err != nil {
			return 0, err
		}
	case cells != "":
		for i, spec := range strings.Split(cells, "|") {
			c, err := check.Parse(strings.TrimSpace(spec))
			if err != nil {
				return 0, err
			}
			opt := check.Options{TCP: tcpEvery > 0 && i%tcpEvery == 0}
			if err := runOne(c, opt, true); err != nil {
				return 0, err
			}
		}
	default:
		seedList, err := parseSeeds(seeds)
		if err != nil {
			return 0, err
		}
		err = check.Sweep(seedList, budget, spaceKind, func(c *check.Cell) error {
			tcp := tcpEvery > 0 && explored%tcpEvery == 0
			if tcp {
				check.AddLinkFaults(c)
			}
			return runOne(c, check.Options{TCP: tcp}, true)
		})
		if err != nil {
			return 0, err
		}
	}

	if !jsonOut {
		fmt.Printf("check: %d cells explored (%d also run async), %d violated\n", explored, asyncRan, violated)
	}
	if violated > 0 {
		return 1, nil
	}
	return 0, nil
}

// parseSeeds decodes "1,2,5-8" into [1 2 5 6 7 8].
func parseSeeds(spec string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		a, b, isRange := strings.Cut(part, "-")
		lo, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		hi := lo
		if isRange {
			if hi, err = strconv.ParseInt(b, 10, 64); err != nil || hi < lo {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for s := lo; s <= hi; s++ {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds in %q", spec)
	}
	return out, nil
}
