// Package experiments is the catalog of the paper's tables: one entry per
// experiment ID of DESIGN.md §4 (E1–E9) and per open finding (F-B), each
// rendered deterministically at fixed parameters. cmd/experiments prints
// the entries; the root tests pin every entry's text under
// testdata/experiments/ and hold EXPERIMENTS.md's marked blocks to those
// goldens, so a protocol change that moves a paper number shows up as a
// golden diff. The in-package tests assert the experimental *shapes*
// (normalized curves flat, divergence equal to the attack budget, bounds
// ordered) on the same helpers.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"treeaa/internal/adversary"
	"treeaa/internal/async"
	"treeaa/internal/baseline"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/crashaa"
	"treeaa/internal/exactaa"
	"treeaa/internal/lowerbound"
	"treeaa/internal/metrics"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Experiment is one catalog entry: its EXPERIMENTS.md ID, a title, the
// fixed parameters it runs at, and the tables it prints.
type Experiment struct {
	ID, Title, Params string
	body              func(b *strings.Builder) error
}

// Render writes the entry: a heading with its ID, title and parameters,
// then its tables.
func (e Experiment) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n%s\n\n", e.ID, e.Title, e.Params)
	if err := e.body(&b); err != nil {
		return fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Catalog returns every entry in EXPERIMENTS.md order.
func Catalog() []Experiment { return slices.Clone(catalog) }

var catalog = []Experiment{
	{"E1", "RealAA fixed schedule vs the Theorem 3 formula, and the SplitVote budget",
		"n=10 t=3 eps=1 at D = 10, 1e3, 1e6; SplitVote at D=100 for (n,t) = (7,2), (10,3), (16,5)", renderE1},
	{"E1b", "RealAA rounds by fault budget t: the Theorem 3 count, the schedule, and where an execution decides",
		"t = 0, 1, 2, 5 at n = max(4, 3t+1); D/eps = 10, 1e2, 1e4, 1e6; SplitVote one leader per iteration", renderE1b},
	{"E2", "TreeAA and the O(log D) baseline by tree family and size (E2/E5)",
		"n=7 t=2; five families at |V| = 64, 256, 1024, 4096", renderE2},
	{"E3", "Fekete bound adapted to trees (Theorems 1–2, Corollary 1)",
		"n=10 t=3; D = 1e2, 1e4, 1e6, 1e9, 1e12", renderE3},
	{"E4", "detection ablation on real values",
		"n=10 t=3 D=1e6 eps=1", renderE4},
	{"E5b", "exact agreement via Dolev–Strong vs TreeAA",
		"path:64; n = 4, 7, 13 at t = (n-1)/3", renderE5b},
	{"E5c", "asynchronous NR-style protocol depth (async rounds)",
		"n=7 t=2; paths of diameter 16, 64, 256", renderE5c},
	{"E6", "TreeAA correctness matrix under every strategy",
		"path:256 n=10 t=3 seed=1", renderE6},
	{"E8", "TreeAA message complexity",
		"path:64; n = 4, 7, 13 at t = (n-1)/3", renderE8},
	{"E9", "partial crashes in the mean-update crash protocol",
		"n=8, 5 iterations; p6 and p7 crash partially in rounds 1 and 2", renderE9},
	{"F-B", "ExclusionSplit against RealAA (Finding F-B: outlives the Theorem 3 count, not the schedule)",
		"n=7 t=2 eps=1, X=p5 S=p6; D = 1e4, 1e6, 1e9", renderFB},
}

// pseudoSpread returns a deterministic non-symmetric spread of n values in
// [0, d] (symmetric inputs can coincidentally neutralize splitters).
func pseudoSpread(n int, d float64) []float64 {
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = d * float64((i*37+13)%101) / 101
	}
	return inputs
}

// bounds returns the smallest and the largest of the values.
func bounds(values map[sim.PartyID]float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// family is a named tree generator for sweeps.
type family struct {
	name string
	make func(size int) *tree.Tree
}

// defaultFamilies returns the five families of the E2/E5 sweep.
func defaultFamilies() []family {
	return []family{
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

// e1Row is one measurement of the Theorem 3 round-formula sweep.
type e1Row struct {
	d              float64
	scheduleRounds int // 3·Iterations + 1 (incl. final processing)
	formulaRounds  int // realaa.Rounds(t, D, 1): t+1 iterations for t <= 1, else Theorem 3 + margin
	finalRange     float64
	valid          bool
}

// e1RoundsSweep measures RealAA's fixed schedule and final spread across
// input diameters, with no adversary: validity must yield a final range of
// 0. The diameters run in parallel; row order follows the input.
func e1RoundsSweep(n, t int, diameters []float64) ([]e1Row, error) {
	rows := make([]e1Row, len(diameters))
	err := sim.ForEach(len(diameters), func(i int) error {
		d := diameters[i]
		outputs, _, err := realaa.RunReal(n, t, pseudoSpread(n, d), d, 1, true, nil)
		if err != nil {
			return fmt.Errorf("D=%g: %w", d, err)
		}
		lo, hi := bounds(outputs)
		rows[i] = e1Row{
			d:              d,
			scheduleRounds: 3*realaa.Iterations(t, d, 1) + 1,
			formulaRounds:  realaa.Rounds(t, d, 1),
			finalRange:     hi - lo,
			valid:          lo >= -1e-9 && hi <= d+1e-9,
		}
		return nil
	})
	return rows, err
}

// e1Table renders the sweep.
func e1Table(rows []e1Row) *metrics.Table {
	tab := metrics.NewTable("D", "schedule_rounds", "formula_rounds", "final_range", "valid")
	for _, r := range rows {
		tab.AddRow(r.d, r.scheduleRounds, r.formulaRounds, r.finalRange, r.valid)
	}
	return tab
}

// e1SplitVoteDivergence counts the iterations honest values stay apart
// under SplitVote spending one leader per iteration — Theorem 1's budget
// says at most t.
func e1SplitVoteDivergence(nts [][2]int) (*metrics.Table, error) {
	tab := metrics.NewTable("n", "t", "divergent_iters")
	for _, nt := range nts {
		n, t := nt[0], nt[1]
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = float64((i*37 + 13) % 101)
		}
		adv := &adversary.SplitVote{IDs: adversary.FirstParties(n, t), N: n, T: t, Tag: "real", PerIteration: 1}
		_, histories, err := realaa.RunReal(n, t, inputs, 100, 1, true, adv)
		if err != nil {
			return nil, fmt.Errorf("splitvote n=%d: %w", n, err)
		}
		tab.AddRow(n, t, realaa.DivergentIterations(histories, 1e-12))
	}
	return tab, nil
}

func renderE1(b *strings.Builder) error {
	rows, err := e1RoundsSweep(10, 3, []float64{10, 1e3, 1e6})
	if err != nil {
		return err
	}
	b.WriteString(e1Table(rows).String())
	tab, err := e1SplitVoteDivergence([][2]int{{7, 2}, {10, 3}, {16, 5}})
	if err != nil {
		return err
	}
	b.WriteString("\ndivergent iterations under SplitVote (one leader per iteration, D = 100):\n")
	b.WriteString(tab.String())
	return nil
}

// e1bRoundsByT renders RealAA's communication rounds against the fault
// budget, one row per (t, D/eps): the paper's Theorem 3 count (+2), the
// shipped schedule (t <= 1: the one-fault collapse, 3(t+1) rounds whatever
// the diameter; t >= 2: the longer of Theorem 3 and DLPSW) and the rounds
// an execution with Config.Eps set runs until its last honest party has
// decided, under SplitVote spending one leader per iteration.
func e1bRoundsByT(ts []int, ratios []float64) (*metrics.Table, error) {
	tab := metrics.NewTable("t", "D/eps", "theorem3_rounds", "schedule_rounds", "decided_rounds")
	for _, t := range ts {
		for _, r := range ratios {
			decided, err := earlyRounds(t, r)
			if err != nil {
				return nil, fmt.Errorf("t=%d D/eps=%g: %w", t, r, err)
			}
			tab.AddRow(t, r, 3*realaa.Theorem3Iterations(r, 1), realaa.Rounds(t, r, 1), decided)
		}
	}
	return tab, nil
}

// earlyRounds runs RealAA(1) with Config.Eps = 1 at n = max(4, 3t+1)
// on inputs spread over [0, d], under SplitVote spending one leader per
// iteration, and returns the communication rounds until the last honest
// party decided (the execution's rounds less its processing step).
func earlyRounds(t int, d float64) (int, error) {
	n := max(4, 3*t+1)
	var adv sim.Adversary
	if t > 0 {
		adv = &adversary.SplitVote{IDs: adversary.FirstParties(n, t), N: n, T: t, Tag: "real", PerIteration: 1}
	}
	res, err := runRealAA(n, t, pseudoSpread(n, d), realaa.Iterations(t, d, 1), 1, adv)
	if err != nil {
		return 0, err
	}
	return res.Rounds - 1, nil
}

// runRealAA runs RealAA machines tagged "real" for the given number of
// iterations, with Config.Eps = eps (0: no early decision), under adv.
func runRealAA(n, t int, inputs []float64, iters int, eps float64, adv sim.Adversary) (*sim.Result, error) {
	machines := make([]sim.Machine, n)
	for i := range machines {
		m, err := realaa.NewMachine(realaa.Config{N: n, T: t, ID: sim.PartyID(i), Tag: "real",
			Iterations: iters, StartRound: 1, Input: inputs[i], Eps: eps})
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	return sim.Run(sim.Config{N: n, MaxCorrupt: t, MaxRounds: 3*iters + 2, Adversary: adv}, machines)
}

func renderE1b(b *strings.Builder) error {
	tab, err := e1bRoundsByT([]int{0, 1, 2, 5}, []float64{10, 1e2, 1e4, 1e6})
	if err != nil {
		return err
	}
	b.WriteString("communication rounds, the processing step excluded\n\n")
	b.WriteString(tab.String())
	return nil
}

// e2Row is one measurement of the E2/E5 sweep.
type e2Row struct {
	family        string
	v, d          int
	treeAARounds  int // the schedule, core.Rounds+1: the paper's round claim
	decidedRounds int // the round the execution stopped in
	baseRounds    int
	lowerBound    int
	theory        float64 // log2 V / log2 log2 V
}

// e2RoundsSweep measures TreeAA and the baseline across families and sizes
// (experiments E2 and E5). The (family, size) cells run in parallel —
// every cell builds its own tree and trees are immutable once built — and
// the rows keep the sequential family-major order. Trees of diameter <= 1
// are skipped.
func e2RoundsSweep(families []family, sizes []int, n, t int) ([]e2Row, error) {
	type cell struct {
		f    family
		size int
	}
	var cells []cell
	for _, f := range families {
		for _, size := range sizes {
			cells = append(cells, cell{f, size})
		}
	}
	rows := make([]e2Row, len(cells))
	err := sim.ForEach(len(cells), func(i int) error {
		f, size := cells[i].f, cells[i].size
		tr := f.make(size)
		d, _, _ := tr.Diameter()
		if d <= 1 {
			return nil
		}
		inputs := (&cli.Space{Tree: tr}).SpreadInputs(n)
		res, err := core.Run(tr, n, t, inputs, nil)
		if err != nil {
			return fmt.Errorf("%s V=%d: %w", f.name, size, err)
		}
		_, bres, err := baseline.Run(tr, n, t, inputs, nil)
		if err != nil {
			return fmt.Errorf("%s V=%d baseline: %w", f.name, size, err)
		}
		v := float64(tr.NumVertices())
		rows[i] = e2Row{
			family: f.name, v: tr.NumVertices(), d: d,
			treeAARounds: core.Rounds(tr, t) + 1, decidedRounds: res.Rounds, baseRounds: bres.Rounds,
			lowerBound: lowerbound.MinRounds(float64(d), n, t),
			theory:     math.Log2(v) / math.Log2(math.Log2(v)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(rows, func(r e2Row) bool { return r.family == "" }), nil
}

// e2Table renders the sweep with the normalized columns EXPERIMENTS.md
// discusses.
func e2Table(rows []e2Row) *metrics.Table {
	tab := metrics.NewTable("family", "V", "D", "treeaa_rounds", "decided_rounds",
		"baseline_rounds", "lowerbound", "logV_loglogV", "treeaa_norm", "baseline_norm")
	for _, r := range rows {
		tab.AddRow(r.family, r.v, r.d, r.treeAARounds, r.decidedRounds, r.baseRounds, r.lowerBound,
			r.theory, float64(r.treeAARounds)/r.theory, float64(r.baseRounds)/math.Log2(float64(r.d)))
	}
	return tab
}

// e2Series extracts (log2 V, rounds) series for one family.
func e2Series(rows []e2Row, family string) (treeAA, base metrics.Series) {
	treeAA.Name = "treeaa"
	base.Name = "baseline(logD)"
	for _, r := range rows {
		if r.family != family {
			continue
		}
		x := math.Log2(float64(r.v))
		treeAA.Add(x, float64(r.treeAARounds))
		base.Add(x, float64(r.baseRounds))
	}
	return treeAA, base
}

func renderE2(b *strings.Builder) error {
	rows, err := e2RoundsSweep(defaultFamilies(), []int{64, 256, 1024, 4096}, 7, 2)
	if err != nil {
		return err
	}
	b.WriteString("treeaa_rounds = the schedule (core.Rounds+1); decided_rounds = the round the execution stopped in\n")
	b.WriteString("treeaa_norm = treeaa_rounds/(log2V/loglog2V) should be ~flat (Theorem 4);\n")
	b.WriteString("baseline_norm = rounds/log2(D) should be ~flat ([33]); lowerbound = Theorem 2 minimal rounds\n\n")
	b.WriteString(e2Table(rows).String())
	a, base := e2Series(rows, "path")
	b.WriteString("\nrounds vs log2|V| (path family):\n")
	b.WriteString(metrics.RenderASCII(60, 14, a, base))
	return nil
}

// e3KTable renders log2 K(R, D) for R = 1..t+2 across diameters, with the
// exact partition supremum (Theorem 1/Corollary 1).
func e3KTable(n, t int, diameters []float64) *metrics.Table {
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

// e3MinRoundsTable renders the exact minimal rounds against the Theorem 2
// closed form.
func e3MinRoundsTable(n, t int, diameters []float64) *metrics.Table {
	tab := metrics.NewTable("D", "minRounds_exact", "thm2_formula")
	for _, d := range diameters {
		tab.AddRow(d, lowerbound.MinRounds(d, n, t), lowerbound.Theorem2Formula(d, n, t))
	}
	return tab
}

func renderE3(b *strings.Builder) error {
	n, t := 10, 3
	diameters := []float64{1e2, 1e4, 1e6, 1e9, 1e12}
	b.WriteString("K(R,D) = D·sup/(n+t)^R; 1-Agreement forces log2 K <= 0 (K <= 1)\n\n")
	b.WriteString(e3KTable(n, t, diameters).String())
	b.WriteString("\nminimal rounds forced by the bound vs the Theorem 2 closed form:\n")
	b.WriteString(e3MinRoundsTable(n, t, diameters).String())

	// The executable chain argument for one round.
	trimmedMidpoint := func(view []float64) float64 {
		vals := append([]float64(nil), view...)
		sort.Float64s(vals)
		vals = vals[1 : len(vals)-1]
		return (vals[0] + vals[len(vals)-1]) / 2
	}
	gap, at, err := lowerbound.DemonstrateOneRound(trimmedMidpoint, n, 0, 1000)
	if err != nil {
		return err
	}
	b.WriteString("\none-round chain-of-views demonstration (trimmed-midpoint rule, D = 1000):\n")
	fmt.Fprintf(b, "  adjacent views %d/%d are honest-indistinguishable yet force outputs %.1f apart\n", at, at+1, gap)
	fmt.Fprintf(b, "  (>= D/n = %.1f: no one-round protocol can 1-agree on spreads beyond n)\n", 1000.0/float64(n))
	return nil
}

// e4Row is one protocol/adversary cell of the detection ablation.
type e4Row struct {
	protocol, adversary string
	budgetRounds        int
	measuredRounds      int
	finalRange          float64
	valid               bool
}

// e4DetectAblation runs RealAA and DLPSW under their strongest implemented
// attacks.
func e4DetectAblation(n, t int, d float64) ([]e4Row, error) {
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
	rows := make([]e4Row, len(variants))
	err := sim.ForEach(len(variants), func(i int) error {
		v := variants[i]
		outputs, histories, err := realaa.RunReal(n, t, inputs, d, 1, v.detect, v.adv)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", v.protocol, v.advName, err)
		}
		roundsPerIter, budget := 1, realaa.DLPSWIterations(d, 1)+1
		if v.detect {
			roundsPerIter, budget = 3, 3*realaa.Iterations(t, d, 1)+1
		}
		lo, hi := bounds(outputs)
		rows[i] = e4Row{
			protocol: v.protocol, adversary: v.advName,
			budgetRounds:   budget,
			measuredRounds: realaa.ConvergenceRound(histories, 1, roundsPerIter),
			finalRange:     hi - lo,
			valid:          lo >= -1e-9 && hi <= d+1e-9 && hi-lo <= 1+1e-9,
		}
		return nil
	})
	return rows, err
}

// e4Table renders the ablation.
func e4Table(rows []e4Row) *metrics.Table {
	tab := metrics.NewTable("protocol", "adversary", "budget_rounds", "measured_rounds", "final_range", "valid")
	for _, r := range rows {
		tab.AddRow(r.protocol, r.adversary, r.budgetRounds, r.measuredRounds, r.finalRange, r.valid)
	}
	return tab
}

func renderE4(b *strings.Builder) error {
	rows, err := e4DetectAblation(10, 3, 1e6)
	if err != nil {
		return err
	}
	b.WriteString("(budget = fixed worst-case rounds; measured = rounds until honest range <= eps under attack)\n\n")
	b.WriteString(e4Table(rows).String())
	return nil
}

// e5bExactCost measures the Dolev–Strong exact-agreement comparator's
// round growth in n against TreeAA's flat schedule (core.Rounds+1) and the
// round its execution stopped in.
func e5bExactCost(tr *tree.Tree, ns []int) (*metrics.Table, error) {
	tab := metrics.NewTable("n", "t", "dolevstrong_rounds", "treeaa_rounds", "decided_rounds")
	for _, n := range ns {
		t := (n - 1) / 3
		inputs := (&cli.Space{Tree: tr}).SpreadInputs(n)
		_, eres, err := exactaa.Run(tr, n, t, inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("exactaa n=%d: %w", n, err)
		}
		res, err := core.Run(tr, n, t, inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("treeaa n=%d: %w", n, err)
		}
		tab.AddRow(n, t, eres.Rounds, core.Rounds(tr, t)+1, res.Rounds)
	}
	return tab, nil
}

func renderE5b(b *strings.Builder) error {
	tab, err := e5bExactCost(tree.NewPath(64), []int{4, 7, 13})
	if err != nil {
		return err
	}
	b.WriteString(tab.String())
	return nil
}

// e5cAsyncDepth measures the asynchronous NR-style protocol's causal depth
// across diameters.
func e5cAsyncDepth(n, t int, diameters []int) (*metrics.Table, error) {
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
			return nil, fmt.Errorf("async D=%d: %w", d, err)
		}
		tab.AddRow(d, iters, res.Depth, res.Deliveries)
	}
	return tab, nil
}

func renderE5c(b *strings.Builder) error {
	tab, err := e5cAsyncDepth(7, 2, []int{16, 64, 256})
	if err != nil {
		return err
	}
	b.WriteString(tab.String())
	return nil
}

// e6Row is one adversary cell of the TreeAA correctness matrix.
type e6Row struct {
	adversary string
	rounds    int
	messages  int
	bytes     int
	maxDist   int
	valid     bool
}

// e6Matrix runs TreeAA under every strategy at the given corruption level.
// Every row, the honest one included, is judged over the same honest
// parties: all but FirstParties(n, t).
func e6Matrix(tr *tree.Tree, n, t int, seed int64) ([]e6Row, error) {
	sp := &cli.Space{Tree: tr}
	inputs := sp.SpreadInputs(n)
	corrupt := make(map[sim.PartyID]bool, t)
	for _, id := range adversary.FirstParties(n, t) {
		corrupt[id] = true
	}
	names := []string{"none", "silent", "equivocator", "splitvote", "halfburn", "replay", "noise"}
	// The strategies run in parallel: each adversary value is used by
	// exactly one execution, and the shared tree is immutable.
	rows := make([]e6Row, len(names))
	err := sim.ForEach(len(names), func(i int) error {
		adv, _, err := sp.BuildAdversary(names[i], n, t, seed)
		if err != nil {
			return err
		}
		res, err := core.Run(tr, n, t, inputs, adv)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		maxDist, validity, _ := sp.Judge(inputs, corrupt, res.Outputs)
		rows[i] = e6Row{
			adversary: names[i], rounds: res.Rounds, messages: res.Messages,
			bytes: res.Bytes, maxDist: maxDist, valid: len(validity) == 0,
		}
		return nil
	})
	return rows, err
}

// e6Table renders the matrix.
func e6Table(rows []e6Row) *metrics.Table {
	tab := metrics.NewTable("adversary", "rounds", "messages", "kbytes", "max_out_dist", "valid", "ok")
	for _, r := range rows {
		tab.AddRow(r.adversary, r.rounds, r.messages, float64(r.bytes)/1024, r.maxDist, r.valid, r.valid && r.maxDist <= 1)
	}
	return tab
}

func renderE6(b *strings.Builder) error {
	rows, err := e6Matrix(tree.NewPath(256), 10, 3, 1)
	if err != nil {
		return err
	}
	b.WriteString(e6Table(rows).String())
	return nil
}

// e8MessageComplexity measures TreeAA's traffic growth in n on a fixed
// tree: the batched gradecast implementation sends two vector messages per
// party per round (the value instance plus the suspicion-set instance), so
// totals grow as Θ(R·n²) point-to-point messages of O(n)-sized payloads —
// an improvement in message count over the O(R·n³) bookkeeping bound quoted
// for [6], paid for in message size.
func e8MessageComplexity(tr *tree.Tree, ns []int) (*metrics.Table, error) {
	tab := metrics.NewTable("n", "t", "rounds", "messages", "bytes", "msgs_per_round_n2")
	for _, n := range ns {
		t := (n - 1) / 3
		inputs := (&cli.Space{Tree: tr}).SpreadInputs(n)
		res, err := core.Run(tr, n, t, inputs, nil)
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		tab.AddRow(n, t, res.Rounds, res.Messages, res.Bytes,
			float64(res.Messages)/float64(res.Rounds)/float64(n*n))
	}
	return tab, nil
}

func renderE8(b *strings.Builder) error {
	tab, err := e8MessageComplexity(tree.NewPath(64), []int{4, 7, 13})
	if err != nil {
		return err
	}
	b.WriteString(tab.String())
	return nil
}

// renderE9 runs the crash-fault model of Fekete's papers [18, 19]: each
// partial crash splits the survivors' views once, so divergent iterations
// equal the number of partial-crash rounds, and one clean round restores
// exact agreement.
func renderE9(b *strings.Builder) error {
	inputs := []float64{0, 100, 40, 60, 20, 80, 50, 30}
	adv := &crashaa.PartialCrash{IDs: []sim.PartyID{6, 7}, Rounds: []int{1, 2}, Cutoffs: []int{3, 3}}
	outputs, histories, err := crashaa.Run(len(inputs), inputs, 5, adv)
	if err != nil {
		return err
	}
	lo, hi := bounds(outputs)
	tab := metrics.NewTable("partial_crash_rounds", "divergent_iters", "final_range")
	tab.AddRow(len(adv.Rounds), realaa.DivergentIterations(histories, 1e-12), hi-lo)
	b.WriteString(tab.String())
	return nil
}

// renderFB runs the script behind Finding F-B: ExclusionSplit leaves the
// honest parties with different exclusion sets for good, so the honest
// range halves per iteration and outlives the Theorem 3 + 2 count — the
// final spread there exceeds eps = 1 until the exclusion rule is repaired.
// The shipped schedule is at least the DLPSW halving count and ends inside
// eps.
func renderFB(b *strings.Builder) error {
	n, t := 7, 2
	tab := metrics.NewTable("D", "theorem3_iters", "theorem3_spread", "schedule_iters", "final_spread")
	for _, d := range []float64{1e4, 1e6, 1e9} {
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = d * float64(i%5) / 4 // honest inputs evenly spread over [0, D]
		}
		spread := func(iters int) (float64, error) {
			adv := &adversary.ExclusionSplit{IDs: adversary.FirstParties(n, t), X: 5, S: 6, N: n, T: t, Tag: "real"}
			res, err := runRealAA(n, t, inputs, iters, 0, adv)
			if err != nil {
				return 0, fmt.Errorf("D=%g: %w", d, err)
			}
			outputs := make(map[sim.PartyID]float64, len(res.Outputs))
			for p, v := range res.Outputs {
				outputs[p] = v.(float64)
			}
			lo, hi := bounds(outputs)
			return hi - lo, nil
		}
		paper, shipped := realaa.Theorem3Iterations(d, 1), realaa.Iterations(t, d, 1)
		paperSpread, err := spread(paper)
		if err != nil {
			return err
		}
		shippedSpread, err := spread(shipped)
		if err != nil {
			return err
		}
		tab.AddRow(d, paper, paperSpread, shipped, shippedSpread)
	}
	b.WriteString(tab.String())
	return nil
}
