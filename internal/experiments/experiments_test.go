package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/tree"
)

// TestE2NormalizedCurvesFlat is the E2/E5 shape regression: TreeAA rounds
// normalized by log2V/log2log2V and baseline rounds normalized by log2D
// must stay within a narrow band across families and sizes. It runs at
// (n=7, t=2): with t <= 1 the schedule is constant in |V| (the one-fault
// collapse), so there is no Theorem 4 shape to test.
func TestE2NormalizedCurvesFlat(t *testing.T) {
	rows, err := e2RoundsSweep(defaultFamilies(), []int{64, 256, 1024}, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 12 {
		t.Fatalf("only %d rows", len(rows))
	}
	for _, r := range rows {
		treeNorm := float64(r.treeAARounds) / r.theory
		baseNorm := float64(r.baseRounds) / math.Log2(float64(r.d))
		// Path input spaces take the Section 4 shortcut (one RealAA phase),
		// roughly halving the normalized constant.
		lo, hi := 12.0, 26.0
		if r.family == "path" {
			lo, hi = 6.0, 14.0
		}
		if treeNorm < lo || treeNorm > hi {
			t.Errorf("%s V=%d: treeaa_norm = %.2f outside [%g,%g]", r.family, r.v, treeNorm, lo, hi)
		}
		if baseNorm < 0.8 || baseNorm > 3 {
			t.Errorf("%s V=%d: baseline_norm = %.2f outside [0.8,3]", r.family, r.v, baseNorm)
		}
		if r.lowerBound > r.treeAARounds {
			t.Errorf("%s V=%d: lower bound %d exceeds protocol rounds %d", r.family, r.v, r.lowerBound, r.treeAARounds)
		}
	}
	tab := e2Table(rows)
	if tab.Len() != len(rows) {
		t.Errorf("table rows = %d, want %d", tab.Len(), len(rows))
	}
	a, b := e2Series(rows, "path")
	if len(a.Points) != 3 || len(b.Points) != 3 {
		t.Errorf("series points = %d/%d, want 3/3", len(a.Points), len(b.Points))
	}
}

func TestE3Tables(t *testing.T) {
	diams := []float64{1e2, 1e6}
	k := e3KTable(10, 3, diams)
	if k.Len() != 5 { // R = 1..t+2
		t.Errorf("K table rows = %d, want 5", k.Len())
	}
	m := e3MinRoundsTable(10, 3, diams)
	if m.Len() != 2 {
		t.Errorf("minRounds table rows = %d", m.Len())
	}
	if !strings.Contains(k.String(), "sup") {
		t.Error("K table missing sup column")
	}
}

// TestE4ShapeDetectionWins is the E4 regression: under attack, RealAA's
// measured convergence beats DLPSW's whenever t << log2(D) — at D=1e6,
// t=3 the paper-predicted regime.
func TestE4ShapeDetectionWins(t *testing.T) {
	rows, err := e4DetectAblation(10, 3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]e4Row{}
	for _, r := range rows {
		byKey[r.protocol+"/"+r.adversary] = r
		if !r.valid {
			t.Errorf("%s/%s: AA violated (range %v)", r.protocol, r.adversary, r.finalRange)
		}
	}
	real := byKey["RealAA/splitvote"]
	classic := byKey["DLPSW/splitter"]
	if real.measuredRounds >= classic.measuredRounds {
		t.Errorf("detection advantage missing: RealAA %d rounds vs DLPSW %d",
			real.measuredRounds, classic.measuredRounds)
	}
	if e4Table(rows).Len() != len(rows) {
		t.Error("table size mismatch")
	}
}

func TestE5cAsyncDepthGrowsWithD(t *testing.T) {
	tab, err := e5cAsyncDepth(4, 1, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("rows = %d", tab.Len())
	}
}

func TestE5bExactCostGrowsWithN(t *testing.T) {
	tab, err := e5bExactCost(tree.NewPath(32), []int{4, 7})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("rows = %d", tab.Len())
	}
}

// TestE6MatrixAllOK is the resilience regression: every strategy row must
// report valid outputs within distance 1.
func TestE6MatrixAllOK(t *testing.T) {
	rows, err := e6Matrix(tree.NewPath(64), 7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 strategies", len(rows))
	}
	for _, r := range rows {
		if !r.valid || r.maxDist > 1 {
			t.Errorf("%s: valid=%v maxDist=%d", r.adversary, r.valid, r.maxDist)
		}
	}
	if e6Table(rows).Len() != 7 {
		t.Error("table size mismatch")
	}
}

// TestE8QuadraticMessages asserts the Θ(R·n²) message shape: messages per
// round per n² stays within a tight constant band as n grows.
func TestE8QuadraticMessages(t *testing.T) {
	tab, err := e8MessageComplexity(tree.NewPath(64), []int{4, 7, 13})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("rows = %d", tab.Len())
	}
	// Recompute directly for the band check.
	for _, n := range []int{4, 13} {
		inputs := (&cli.Space{Tree: tree.NewPath(64)}).SpreadInputs(n)
		res, err := coreRun(tree.NewPath(64), n, (n-1)/3, inputs)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.Messages) / float64(res.Rounds) / float64(n*n)
		if ratio < 1.0 || ratio > 2.2 {
			t.Errorf("n=%d: msgs/round/n² = %.3f outside [1.0, 2.2]", n, ratio)
		}
	}
}

func coreRun(tr *tree.Tree, n, tc int, inputs []tree.VertexID) (*core.Result, error) {
	return core.Run(tr, n, tc, inputs, nil)
}

func TestE1SweepMatchesFormula(t *testing.T) {
	rows, err := e1RoundsSweep(7, 2, []float64{10, 1e3, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.valid || r.finalRange != 0 {
			t.Errorf("D=%g: final range %v valid=%v", r.d, r.finalRange, r.valid)
		}
		if diff := r.scheduleRounds - r.formulaRounds; diff < 0 || diff > 1 {
			t.Errorf("D=%g: schedule %d vs formula %d", r.d, r.scheduleRounds, r.formulaRounds)
		}
	}
	if e1Table(rows).Len() != 3 {
		t.Error("table size mismatch")
	}
}

// TestE1bRoundsByT: the schedule is constant in D/eps for t <= 1
// (3(t+1) rounds); at t = 0 an execution decides at iteration 1's echo rule,
// after 2 communication rounds, and at t = 1 SplitVote defeats that rule,
// so it runs all 6. Every t >= 2 shares one schedule, at
// least the Theorem 3 count, and decides inside it.
func TestE1bRoundsByT(t *testing.T) {
	ratios := []float64{10, 1e2, 1e4, 1e6}
	tab, err := e1bRoundsByT([]int{0, 1, 2, 5}, ratios)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tab.String()), "\n")
	if len(lines) != 2+4*len(ratios) {
		t.Fatalf("table has %d lines, want header, rule and %d rows:\n%s", len(lines), 4*len(ratios), tab)
	}
	schedule := map[string]string{} // D/eps -> the t = 2 schedule
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		tc, ratio := f[0], f[1]
		theorem3, sched, decided := atoi(t, f[2]), atoi(t, f[3]), atoi(t, f[4])
		switch tc {
		case "0", "1":
			want := map[string][2]int{"0": {3, 2}, "1": {6, 6}}[tc]
			if sched != want[0] || decided != want[1] {
				t.Errorf("t=%s D/eps=%s: schedule %d, decided %d, want %v", tc, ratio, sched, decided, want)
			}
		default:
			if sched < theorem3 || decided > sched {
				t.Errorf("t=%s D/eps=%s: theorem3 %d, schedule %d, decided %d", tc, ratio, theorem3, sched, decided)
			}
			if prev, ok := schedule[ratio]; ok && prev != f[3] {
				t.Errorf("t=%s D/eps=%s: schedule %s differs from t=2's %s", tc, ratio, f[3], prev)
			}
			schedule[ratio] = f[3]
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
