// Package experiments is the tested experiment library behind the cmd/
// binaries and EXPERIMENTS.md: each function regenerates one experiment
// from DESIGN.md's index (E1–E6) as metrics tables/series. Keeping the
// generation here — instead of inside main packages — lets the test suite
// assert the experimental *shapes* (normalized curves flat, divergence
// equal to the attack budget, bounds ordered) on every run.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"treeaa/internal/adversary"
	"treeaa/internal/async"
	"treeaa/internal/baseline"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/exactaa"
	"treeaa/internal/lowerbound"
	"treeaa/internal/metrics"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// pseudoSpread returns a deterministic non-symmetric spread of n values in
// [0, d] (symmetric inputs can coincidentally neutralize splitters).
func pseudoSpread(n int, d float64) []float64 {
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = d * float64((i*37+13)%101) / 101
	}
	return inputs
}

// Family is a named tree generator for sweeps.
type Family struct {
	Name string
	Make func(size int) *tree.Tree
}

// DefaultFamilies returns the five standard families used by E2/E5.
func DefaultFamilies() []Family {
	return []Family{
		{"path", tree.NewPath},
		{"caterpillar", func(s int) *tree.Tree { return tree.NewCaterpillar((s+2)/3, 2) }},
		{"spider", func(s int) *tree.Tree { return tree.NewSpider(4, (s+3)/4) }},
		{"kary", func(s int) *tree.Tree {
			depth := int(math.Round(math.Log2(float64(s+1)))) - 1
			if depth < 1 {
				depth = 1
			}
			return tree.NewCompleteKAry(2, depth)
		}},
		{"random", func(s int) *tree.Tree { return tree.RandomPruefer(s, rand.New(rand.NewSource(42))) }},
	}
}

// E1Row is one measurement of the Theorem 3 round-formula sweep.
type E1Row struct {
	D              float64
	ScheduleRounds int // 3·Iterations + 1 (incl. final processing)
	FormulaRounds  int // realaa.Rounds(t, D, 1): t+1 iterations for t <= 1, else Theorem 3 + margin
	FinalRange     float64
	Valid          bool
}

// E1RoundsSweep measures RealAA's fixed schedule and final spread across
// input diameters (experiment E1), with no adversary: validity must yield a
// final range of 0. The diameters run in parallel (each execution is an
// independent deterministic protocol run); row order follows the input.
func E1RoundsSweep(n, t int, diameters []float64) ([]E1Row, error) {
	rows := make([]E1Row, len(diameters))
	err := sim.ForEach(len(diameters), func(i int) error {
		d := diameters[i]
		inputs := pseudoSpread(n, d)
		outputs, _, err := realaa.RunReal(n, t, inputs, d, 1, true, nil)
		if err != nil {
			return fmt.Errorf("experiments: E1 D=%g: %w", d, err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range outputs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		rows[i] = E1Row{
			D:              d,
			ScheduleRounds: 3*realaa.Iterations(t, d, 1) + 1,
			FormulaRounds:  realaa.Rounds(t, d, 1),
			FinalRange:     hi - lo,
			Valid:          lo >= -1e-9 && hi <= d+1e-9,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// E1Table renders the sweep.
func E1Table(rows []E1Row) *metrics.Table {
	tab := metrics.NewTable("D", "schedule_rounds", "formula_rounds", "final_range", "valid")
	for _, r := range rows {
		tab.AddRow(r.D, r.ScheduleRounds, r.FormulaRounds, r.FinalRange, r.Valid)
	}
	return tab
}

// E1bRoundsByT renders RealAA's communication-round schedule against the
// fault budget (experiment E1b): rows are t, columns D/eps. t <= 1 is the
// one-fault collapse (3(t+1) rounds whatever the diameter); every t >= 2
// shares the Theorem 3 schedule.
func E1bRoundsByT(ts []int, ratios []float64) *metrics.Table {
	header := []string{"t"}
	for _, r := range ratios {
		header = append(header, fmt.Sprintf("D/eps=%g", r))
	}
	tab := metrics.NewTable(header...)
	for _, t := range ts {
		row := []any{t}
		for _, r := range ratios {
			row = append(row, realaa.Rounds(t, r, 1))
		}
		tab.AddRow(row...)
	}
	return tab
}

// E2Row is one measurement of the E2/E5 sweep.
type E2Row struct {
	Family       string
	V, D         int
	TreeAARounds int
	BaseRounds   int
	LowerBound   int
	Theory       float64 // log2 V / log2 log2 V
}

// E2RoundsSweep measures TreeAA and the baseline across families and sizes
// (experiments E2 and E5). The (family, size) cells run in parallel —
// every cell builds its own tree and trees are immutable once built — and
// the rows keep the sequential family-major order.
func E2RoundsSweep(families []Family, sizes []int, n, t int) ([]E2Row, error) {
	type cell struct {
		f    Family
		size int
	}
	var cells []cell
	for _, f := range families {
		for _, size := range sizes {
			cells = append(cells, cell{f, size})
		}
	}
	rows := make([]E2Row, len(cells))
	skip := make([]bool, len(cells))
	err := sim.ForEach(len(cells), func(i int) error {
		f, size := cells[i].f, cells[i].size
		tr := f.Make(size)
		d, _, _ := tr.Diameter()
		if d <= 1 {
			skip[i] = true
			return nil
		}
		inputs := (&cli.Space{Tree: tr}).SpreadInputs(n)
		res, err := core.Run(tr, n, t, inputs, nil)
		if err != nil {
			return fmt.Errorf("experiments: %s V=%d: %w", f.Name, size, err)
		}
		_, bres, err := baseline.Run(tr, n, t, inputs, nil)
		if err != nil {
			return fmt.Errorf("experiments: %s V=%d baseline: %w", f.Name, size, err)
		}
		v := float64(tr.NumVertices())
		rows[i] = E2Row{
			Family: f.Name, V: tr.NumVertices(), D: d,
			TreeAARounds: res.Rounds, BaseRounds: bres.Rounds,
			LowerBound: lowerbound.MinRounds(float64(d), n, t),
			Theory:     math.Log2(v) / math.Log2(math.Log2(v)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	kept := rows[:0]
	for i, r := range rows {
		if !skip[i] {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// E2Table renders the sweep with the normalized columns EXPERIMENTS.md
// discusses.
func E2Table(rows []E2Row) *metrics.Table {
	tab := metrics.NewTable("family", "V", "D",
		"treeaa_rounds", "baseline_rounds", "lowerbound", "logV_loglogV", "treeaa_norm", "baseline_norm")
	for _, r := range rows {
		tab.AddRow(r.Family, r.V, r.D, r.TreeAARounds, r.BaseRounds, r.LowerBound,
			r.Theory, float64(r.TreeAARounds)/r.Theory, float64(r.BaseRounds)/math.Log2(float64(r.D)))
	}
	return tab
}

// E2Series extracts (log2 V, rounds) series for one family.
func E2Series(rows []E2Row, family string) (treeAA, base metrics.Series) {
	treeAA.Name = "treeaa"
	base.Name = "baseline(logD)"
	for _, r := range rows {
		if r.Family != family {
			continue
		}
		x := math.Log2(float64(r.V))
		treeAA.Add(x, float64(r.TreeAARounds))
		base.Add(x, float64(r.BaseRounds))
	}
	return treeAA, base
}

// E3KTable renders log2 K(R, D) for R = 1..t+2 across diameters, with the
// exact partition supremum (experiment E3, Theorem 1/Corollary 1).
func E3KTable(n, t int, diameters []float64) *metrics.Table {
	headers := []string{"R", "sup(t1..tR)"}
	for _, d := range diameters {
		headers = append(headers, fmt.Sprintf("log2K_D%g", d))
	}
	tab := metrics.NewTable(headers...)
	for r := 1; r <= t+2; r++ {
		row := []any{r, lowerbound.PartitionProduct(t, r).String()}
		for _, d := range diameters {
			row = append(row, lowerbound.Log2K(r, d, n, t))
		}
		tab.AddRow(row...)
	}
	return tab
}

// E3MinRoundsTable renders the exact minimal rounds against the Theorem 2
// closed form.
func E3MinRoundsTable(n, t int, diameters []float64) *metrics.Table {
	tab := metrics.NewTable("D", "minRounds_exact", "thm2_formula")
	for _, d := range diameters {
		tab.AddRow(d, lowerbound.MinRounds(d, n, t), lowerbound.Theorem2Formula(d, n, t))
	}
	return tab
}

// E4Row is one protocol/adversary cell of the detection ablation.
type E4Row struct {
	Protocol, Adversary string
	BudgetRounds        int
	MeasuredRounds      int
	FinalRange          float64
	Valid               bool
}

// E4DetectAblation runs RealAA and DLPSW under their strongest implemented
// attacks (experiment E4).
func E4DetectAblation(n, t int, d float64) ([]E4Row, error) {
	inputs := pseudoSpread(n, d)
	ids := adversary.FirstParties(n, t)
	type variant struct {
		protocol, advName string
		detect            bool
		adv               sim.Adversary
	}
	variants := []variant{
		{"RealAA", "none", true, nil},
		{"RealAA", "splitvote", true, &adversary.SplitVote{IDs: ids, N: n, T: t, Tag: "real", PerIteration: 1}},
		{"RealAA", "equivocator", true, &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: "real", Lo: -d, Hi: 2 * d}},
		{"RealAA", "halfburn", true, &adversary.HalfBurn{IDs: ids, N: n, T: t, Tag: "real"}},
		{"DLPSW", "none", false, nil},
		{"DLPSW", "splitter", false, &adversary.DLPSWSplitter{IDs: ids, N: n, Tag: "real"}},
	}
	rows := make([]E4Row, len(variants))
	err := sim.ForEach(len(variants), func(i int) error {
		v := variants[i]
		outputs, histories, err := realaa.RunReal(n, t, inputs, d, 1, v.detect, v.adv)
		if err != nil {
			return fmt.Errorf("experiments: %s/%s: %w", v.protocol, v.advName, err)
		}
		roundsPerIter, budget := 1, realaa.DLPSWIterations(d, 1)+1
		if v.detect {
			roundsPerIter, budget = 3, 3*realaa.Iterations(t, d, 1)+1
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, out := range outputs {
			lo = math.Min(lo, out)
			hi = math.Max(hi, out)
		}
		rows[i] = E4Row{
			Protocol: v.protocol, Adversary: v.advName,
			BudgetRounds:   budget,
			MeasuredRounds: realaa.ConvergenceRound(histories, 1, roundsPerIter),
			FinalRange:     hi - lo,
			Valid:          lo >= -1e-9 && hi <= d+1e-9 && hi-lo <= 1+1e-9,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// E4Table renders the ablation.
func E4Table(rows []E4Row) *metrics.Table {
	tab := metrics.NewTable("protocol", "adversary", "budget_rounds", "measured_rounds", "final_range", "valid")
	for _, r := range rows {
		tab.AddRow(r.Protocol, r.Adversary, r.BudgetRounds, r.MeasuredRounds, r.FinalRange, r.Valid)
	}
	return tab
}

// E5cAsyncDepth measures the asynchronous NR-style protocol's causal depth
// across diameters (experiment E5c).
func E5cAsyncDepth(n, t int, diameters []int) (*metrics.Table, error) {
	tab := metrics.NewTable("D", "iterations", "async_depth", "deliveries")
	for _, d := range diameters {
		tr := tree.NewPath(d + 1)
		inputs := (&cli.Space{Tree: tr}).SpreadInputs(n)
		iters := async.TreeIterations(d)
		machines := make([]async.Machine, n)
		for p := 0; p < n; p++ {
			machines[p] = async.NewTreeAA(tr, n, t, async.PartyID(p), inputs[p], iters)
		}
		res, err := async.Run(async.Config{N: n, MaxDeliveries: 5_000_000}, machines)
		if err != nil {
			return nil, fmt.Errorf("experiments: async D=%d: %w", d, err)
		}
		tab.AddRow(d, iters, res.Depth, res.Deliveries)
	}
	return tab, nil
}

// E5bExactCost measures the Dolev–Strong exact-agreement comparator's round
// growth in n against TreeAA's flat rounds (experiment E5b).
func E5bExactCost(tr *tree.Tree, ns []int) (*metrics.Table, error) {
	tab := metrics.NewTable("n", "t", "dolevstrong_rounds", "treeaa_rounds")
	for _, n := range ns {
		t := (n - 1) / 3
		inputs := (&cli.Space{Tree: tr}).SpreadInputs(n)
		_, eres, err := exactaa.Run(tr, n, t, inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: exactaa n=%d: %w", n, err)
		}
		res, err := core.Run(tr, n, t, inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: treeaa n=%d: %w", n, err)
		}
		tab.AddRow(n, t, eres.Rounds, res.Rounds)
	}
	return tab, nil
}

// E6Row is one adversary cell of the TreeAA correctness matrix.
type E6Row struct {
	Adversary string
	Rounds    int
	Messages  int
	Bytes     int
	MaxDist   int
	Valid     bool
}

// E6Matrix runs TreeAA under every strategy at the given corruption level
// (experiments E1/E6). Every row, the honest one included, is judged over
// the same honest parties: all but FirstParties(n, t).
func E6Matrix(tr *tree.Tree, n, t int, seed int64) ([]E6Row, error) {
	sp := &cli.Space{Tree: tr}
	inputs := sp.SpreadInputs(n)
	corrupt := make(map[sim.PartyID]bool, t)
	for _, id := range adversary.FirstParties(n, t) {
		corrupt[id] = true
	}
	names := []string{"none", "silent", "equivocator", "splitvote", "halfburn", "replay", "noise"}
	// The strategies run in parallel: each adversary value is used by
	// exactly one execution, and the shared tree is immutable.
	rows := make([]E6Row, len(names))
	err := sim.ForEach(len(names), func(i int) error {
		adv, _, err := sp.BuildAdversary(names[i], n, t, seed)
		if err != nil {
			return err
		}
		res, err := core.Run(tr, n, t, inputs, adv)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", names[i], err)
		}
		maxDist, validity, _ := sp.Judge(inputs, corrupt, res.Outputs)
		rows[i] = E6Row{
			Adversary: names[i], Rounds: res.Rounds, Messages: res.Messages,
			Bytes: res.Bytes, MaxDist: maxDist, Valid: len(validity) == 0,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// E6Table renders the matrix.
func E6Table(rows []E6Row) *metrics.Table {
	tab := metrics.NewTable("adversary", "rounds", "messages", "kbytes", "max_out_dist", "valid", "ok")
	for _, r := range rows {
		tab.AddRow(r.Adversary, r.Rounds, r.Messages, float64(r.Bytes)/1024, r.MaxDist, r.Valid, r.Valid && r.MaxDist <= 1)
	}
	return tab
}

// E8MessageComplexity measures TreeAA's traffic growth in n on a fixed
// tree (experiment E8): the batched gradecast implementation sends two
// vector messages per party per round (the value instance plus the
// suspicion-set instance), so totals grow as Θ(R·n²) point-to-point
// messages of O(n)-sized payloads — an improvement in message count over
// the O(R·n³) bookkeeping bound quoted for [6], paid for in message size.
func E8MessageComplexity(tr *tree.Tree, ns []int) (*metrics.Table, error) {
	tab := metrics.NewTable("n", "t", "rounds", "messages", "bytes", "msgs_per_round_n2")
	for _, n := range ns {
		t := (n - 1) / 3
		inputs := (&cli.Space{Tree: tr}).SpreadInputs(n)
		res, err := core.Run(tr, n, t, inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: n=%d: %w", n, err)
		}
		tab.AddRow(n, t, res.Rounds, res.Messages, res.Bytes,
			float64(res.Messages)/float64(res.Rounds)/float64(n*n))
	}
	return tab, nil
}
