package experiments

import (
	"math"
	"strings"
	"testing"

	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// TestE2NormalizedCurvesFlat is the E2/E5 shape regression: TreeAA rounds
// normalized by log2V/log2log2V and baseline rounds normalized by log2D
// must stay within a narrow band across families and sizes. It runs at
// (n=7, t=2): with t <= 1 the schedule is constant in |V| (the one-fault
// collapse), so there is no Theorem 4 shape to test.
func TestE2NormalizedCurvesFlat(t *testing.T) {
	rows, err := E2RoundsSweep(DefaultFamilies(), []int{64, 256, 1024}, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 12 {
		t.Fatalf("only %d rows", len(rows))
	}
	for _, r := range rows {
		treeNorm := float64(r.TreeAARounds) / r.Theory
		baseNorm := float64(r.BaseRounds) / math.Log2(float64(r.D))
		// Path input spaces take the Section 4 shortcut (one RealAA phase),
		// roughly halving the normalized constant.
		lo, hi := 12.0, 26.0
		if r.Family == "path" {
			lo, hi = 6.0, 14.0
		}
		if treeNorm < lo || treeNorm > hi {
			t.Errorf("%s V=%d: treeaa_norm = %.2f outside [%g,%g]", r.Family, r.V, treeNorm, lo, hi)
		}
		if baseNorm < 0.8 || baseNorm > 3 {
			t.Errorf("%s V=%d: baseline_norm = %.2f outside [0.8,3]", r.Family, r.V, baseNorm)
		}
		if r.LowerBound > r.TreeAARounds {
			t.Errorf("%s V=%d: lower bound %d exceeds protocol rounds %d", r.Family, r.V, r.LowerBound, r.TreeAARounds)
		}
	}
	tab := E2Table(rows)
	if tab.Len() != len(rows) {
		t.Errorf("table rows = %d, want %d", tab.Len(), len(rows))
	}
	a, b := E2Series(rows, "path")
	if len(a.Points) != 3 || len(b.Points) != 3 {
		t.Errorf("series points = %d/%d, want 3/3", len(a.Points), len(b.Points))
	}
}

func TestE3Tables(t *testing.T) {
	diams := []float64{1e2, 1e6}
	k := E3KTable(10, 3, diams)
	if k.Len() != 5 { // R = 1..t+2
		t.Errorf("K table rows = %d, want 5", k.Len())
	}
	m := E3MinRoundsTable(10, 3, diams)
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
	rows, err := E4DetectAblation(10, 3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]E4Row{}
	for _, r := range rows {
		byKey[r.Protocol+"/"+r.Adversary] = r
		if !r.Valid {
			t.Errorf("%s/%s: AA violated (range %v)", r.Protocol, r.Adversary, r.FinalRange)
		}
	}
	real := byKey["RealAA/splitvote"]
	classic := byKey["DLPSW/splitter"]
	if real.MeasuredRounds >= classic.MeasuredRounds {
		t.Errorf("detection advantage missing: RealAA %d rounds vs DLPSW %d",
			real.MeasuredRounds, classic.MeasuredRounds)
	}
	if E4Table(rows).Len() != len(rows) {
		t.Error("table size mismatch")
	}
}

func TestE5cAsyncDepthGrowsWithD(t *testing.T) {
	tab, err := E5cAsyncDepth(4, 1, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("rows = %d", tab.Len())
	}
}

func TestE5bExactCostGrowsWithN(t *testing.T) {
	tab, err := E5bExactCost(tree.NewPath(32), []int{4, 7})
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
	rows, err := E6Matrix(tree.NewPath(64), 7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 strategies", len(rows))
	}
	for _, r := range rows {
		if !r.Valid || r.MaxDist > 1 {
			t.Errorf("%s: valid=%v maxDist=%d", r.Adversary, r.Valid, r.MaxDist)
		}
	}
	if E6Table(rows).Len() != 7 {
		t.Error("table size mismatch")
	}
}

func TestSpreadInputsBounds(t *testing.T) {
	tr := tree.NewPath(10)
	in := SpreadInputs(tr, 4)
	if in[0] != 0 || in[3] != 9 {
		t.Errorf("SpreadInputs = %v", in)
	}
	if got := SpreadInputs(tr, 1); got[0] != 0 {
		t.Errorf("single input = %v", got)
	}
}

func TestJudge(t *testing.T) {
	tr := tree.Figure3Tree()
	inputs := []tree.VertexID{tr.MustVertex("v3"), tr.MustVertex("v5"), tr.MustVertex("v8")}
	corrupt := map[sim.PartyID]bool{2: true}
	outputs := map[sim.PartyID]tree.VertexID{
		0: tr.MustVertex("v2"),
		1: tr.MustVertex("v3"),
		2: tr.MustVertex("v8"), // corrupted: ignored
	}
	maxDist, valid := judge(tr, inputs, corrupt, outputs)
	if !valid || maxDist != 1 {
		t.Errorf("Judge = (%d, %v), want (1, true)", maxDist, valid)
	}
	outputs[1] = tr.MustVertex("v7") // outside hull {v2,v3,v5}... v7 invalid
	if _, valid := judge(tr, inputs, corrupt, outputs); valid {
		t.Error("invalid output not flagged")
	}
}

// TestE8QuadraticMessages asserts the Θ(R·n²) message shape: messages per
// round per n² stays within a tight constant band as n grows.
func TestE8QuadraticMessages(t *testing.T) {
	tab, err := E8MessageComplexity(tree.NewPath(64), []int{4, 7, 13})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("rows = %d", tab.Len())
	}
	// Recompute directly for the band check.
	for _, n := range []int{4, 13} {
		inputs := SpreadInputs(tree.NewPath(64), n)
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
	rows, err := E1RoundsSweep(7, 2, []float64{10, 1e3, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Valid || r.FinalRange != 0 {
			t.Errorf("D=%g: final range %v valid=%v", r.D, r.FinalRange, r.Valid)
		}
		if diff := r.ScheduleRounds - r.FormulaRounds; diff < 0 || diff > 1 {
			t.Errorf("D=%g: schedule %d vs formula %d", r.D, r.ScheduleRounds, r.FormulaRounds)
		}
	}
	if E1Table(rows).Len() != 3 {
		t.Error("table size mismatch")
	}
}

// TestE1bRoundsByT: the schedule table is constant in D/eps for t <= 1
// (3(t+1) rounds) and identical across every t >= 2.
func TestE1bRoundsByT(t *testing.T) {
	out := E1bRoundsByT([]int{0, 1, 2, 5}, []float64{10, 1e2, 1e4, 1e6}).String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("table has %d lines, want header, rule and 4 rows:\n%s", len(lines), out)
	}
	rows := make([][]string, 4)
	for i := range rows {
		rows[i] = strings.Fields(lines[2+i])
	}
	if got := strings.Join(rows[0], " "); got != "0 3 3 3 3" {
		t.Errorf("t=0 row = %q", got)
	}
	if got := strings.Join(rows[1], " "); got != "1 6 6 6 6" {
		t.Errorf("t=1 row = %q", got)
	}
	if got, want := strings.Join(rows[3][1:], " "), strings.Join(rows[2][1:], " "); got != want || rows[2][1] == "6" {
		t.Errorf("t=5 row %q differs from t=2 row %q (or t=2 collapsed)", got, want)
	}
}
