package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict is -compare's judgement of one (metric, workload) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictImproved   verdict = "improved"
	verdictUnresolved verdict = "unresolved"
)

// judge applies one end-to-end metric's bound to the baseline's runs (a) and
// the candidate's (b). A median worse by more than the bound is a
// regression, better by more than the bound an improvement. When either
// side's own run-to-run spread is wider than the bound the pair is
// unresolved — unless every candidate run is better (or worse) than every
// baseline run, which no spread can explain away.
func judge(d metricDef, a, b []float64) verdict {
	// Flip higher-is-better metrics so that smaller always means better.
	oriented := func(xs []float64) []float64 {
		s := sortedCopy(xs)
		if d.Better == "higher" {
			for i, j := 0, len(s)-1; i <= j; i, j = i+1, j-1 {
				s[i], s[j] = -s[j], -s[i]
			}
		}
		return s
	}
	sa, sb := oriented(a), oriented(b)
	worse := (quantile(sb, 0.5) - quantile(sa, 0.5)) / math.Abs(quantile(sa, 0.5))
	if max(spread(a), spread(b)) > d.Bound {
		switch {
		case sb[len(sb)-1] < sa[0] && -worse > d.Bound: // every run of b beats every run of a
			return verdictImproved
		case sb[0] > sa[len(sa)-1] && worse > d.Bound:
			return verdictRegressed
		}
		return verdictUnresolved
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed
	case -worse > d.Bound:
		return verdictImproved
	}
	return verdictOK
}

func readResults(path string) (*resultFile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(body, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (end-to-end metric, workload) present on
// both sides, checks that exact counts are identical, and fails on a
// regression, a changed exact count, or more failed operations.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Env.Seconds != b.Env.Seconds {
		fmt.Printf("WARNING: unlike runs: A nproc=%d GOMAXPROCS=%d seconds=%g, B nproc=%d GOMAXPROCS=%d seconds=%g\n",
			a.Env.NProc, a.Env.GOMAXPROCS, a.Env.Seconds, b.Env.NProc, b.Env.GOMAXPROCS, b.Env.Seconds)
	}
	collect := func(f *resultFile, w string, traced bool, metric string) (xs []float64) {
		for _, r := range f.Runs {
			if r.Workload == w && r.Traced == traced {
				xs = append(xs, r.Metrics[metric])
			}
		}
		return xs
	}
	failures := func(f *resultFile, w string) (n int) {
		for _, r := range f.Runs {
			if r.Workload == w {
				n += r.Failed
			}
		}
		return n
	}
	bad := 0
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := collect(a, w.Name, false, d.Name), collect(b, w.Name, false, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(d, xa, xb)
			if v == verdictRegressed {
				bad++
			}
			ma, mb := median(xa), median(xb)
			fmt.Printf("%-14s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n", w.Name, d.Name, ma, mb,
				100*(mb-ma)/ma, 100*max(spread(xa), spread(xb)), 100*d.Bound, v)
		}
		if fa, fb := failures(a, w.Name), failures(b, w.Name); fb > fa {
			fmt.Printf("%-14s failed operations rose from %d to %d\n", w.Name, fa, fb)
			bad++
		}
		if a.Env.Seed != b.Env.Seed {
			continue // exact counts repeat only at the same seed
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			xa, xb := collect(a, w.Name, true, d.Name), collect(b, w.Name, true, d.Name)
			if len(xa) == 0 || len(xb) == 0 || xa[0] == xb[0] {
				continue
			}
			fmt.Printf("%-14s %-28s exact count changed: %v → %v\n", w.Name, d.Name, xa[0], xb[0])
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions, changed exact counts or new failures", bad)
	}
	return nil
}
