// Command chaos soaks the TCP substrate under seeded fault injection: it
// sweeps seeds × chaos plans × adversaries over transport.LocalCluster and
// asserts the protocol's safety properties after every run — outputs inside
// the honest input hull, pairwise output distance ≤ 1, and a Result
// byte-identical to the sequential sim.Run oracle (latency, stalls and
// partitions are pure delays; drops are repaired losses).
//
//	chaos                                # default matrix, aligned table
//	chaos -n 7 -t 2 -seeds 1-5 -adversaries none,splitvote
//	chaos -n 7 -t 2 -adversaries 'equivocator(hi=500,lo=-50),splitvote(per=2)+replay'
//	chaos -plans 'lat:2ms±1ms;drop:p1@r2' -json
//	chaos -n 7 -t 2 -adversaries 'splitvote+stop(rounds=2)'   # a crashed party
//	chaos -schedule -plans 'lat:5ms±3ms' -seeds 7   # print the fault schedule
//
// Plans are separated by ';' (clauses inside a plan use ','); see
// internal/chaos for the plan language. Adversaries are specs of the
// adversary language (internal/cli), separated by the commas outside clause
// parentheses. The TCP cluster refuses the adaptive crash clause, which then
// reports as a failed cell; omit and stop run in the omission party's own
// seat. The exit status is non-zero if any
// cell fails a safety assertion.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"treeaa/internal/chaos"
)

func main() {
	var (
		trees    = flag.String("trees", "path:16", "comma-separated tree specs (as in cmd/treeaa)")
		n        = flag.Int("n", 4, "parties per run")
		t        = flag.Int("t", 1, "Byzantine budget (corrupted set is the highest t ids)")
		seeds    = flag.String("seeds", "1-3", "seeds: comma list and/or A-B ranges (e.g. 1,2,5-8)")
		plans    = flag.String("plans", defaultPlans, "chaos plans, ';'-separated ('' = no chaos)")
		advs     = flag.String("adversaries", "none,splitvote", "comma-separated adversary specs (see cmd/treeaa -adversary)")
		jsonOut  = flag.Bool("json", false, "emit one JSON object per cell instead of a table")
		schedule = flag.Bool("schedule", false, "print each plan's materialized fault schedule and exit")
		frames   = flag.Int("schedule-frames", 4, "frames per link to materialize with -schedule")
		setupTO  = flag.Duration("setup-timeout", 10*time.Second, "mesh construction budget per run")
		roundTO  = flag.Duration("round-timeout", 30*time.Second, "per-round traffic budget (also the reconnect budget)")
	)
	flag.Parse()
	if err := run(*trees, *n, *t, *seeds, *plans, *advs, *jsonOut, *schedule, *frames, *setupTO, *roundTO); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

// defaultPlans exercises every fault type on the default n=4 topology.
const defaultPlans = ";" +
	"lat:1ms±1ms;" +
	"stall:p1@r2-3:5ms;" +
	"drop:p0-p2@r2;" +
	"partition:{0-1|2-3}@r2:40ms;" +
	"lat:500µs±500µs,drop:p2@r3"

func run(trees string, n, t int, seeds, plans, advs string, jsonOut, schedule bool, frames int,
	setupTO, roundTO time.Duration) error {
	seedList, err := parseSeeds(seeds)
	if err != nil {
		return err
	}
	planList := strings.Split(plans, ";")

	if schedule {
		for _, spec := range planList {
			p, err := chaos.Parse(spec)
			if err != nil {
				return err
			}
			for _, seed := range seedList {
				fmt.Print(p.Schedule(seed, n, frames))
			}
		}
		return nil
	}

	enc := json.NewEncoder(os.Stdout)
	failures := 0
	reports, err := chaos.Sweep(chaos.SweepConfig{
		Trees: strings.Split(trees, ","), N: n, T: t,
		Seeds: seedList, Plans: planList, Adversaries: splitSpecs(advs),
		SetupTimeout: setupTO, RoundTimeout: roundTO,
		Progress: func(rep *chaos.Report) {
			if !rep.Passed() {
				failures++
			}
			if jsonOut {
				enc.Encode(rep)
			}
		},
	})
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Print(chaos.Table(reports))
	}
	fmt.Printf("chaos: %d cells, %d failed\n", len(reports), failures)
	if failures > 0 {
		return fmt.Errorf("%d cells failed safety assertions", failures)
	}
	return nil
}

// splitSpecs splits a comma-separated list of adversary specs at the commas
// outside clause parentheses: "none,omit(drop=250,halves=1)" is two specs.
func splitSpecs(list string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range list {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out, start = append(out, list[start:i]), i+1
			}
		}
	}
	return append(out, list[start:])
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
