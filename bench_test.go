// Benchmark harness regenerating every experiment in DESIGN.md's index
// (E1–E7 and the substrate microbenchmarks). The paper is theoretical, so
// each "table" is a theorem rendered measurable: benches report rounds,
// messages and convergence as custom metrics next to the formula values,
// and EXPERIMENTS.md records the paper-vs-measured comparison produced by
// `go test -bench=. -benchmem`.
package treeaa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/async"
	"treeaa/internal/baseline"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/crashaa"
	"treeaa/internal/exactaa"
	"treeaa/internal/lowerbound"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// spreadInputs places n party inputs roughly evenly across the vertex range.
func spreadInputs(tr *tree.Tree, n int) []tree.VertexID {
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID(i * (tr.NumVertices() - 1) / max(n-1, 1))
	}
	return inputs
}

// BenchmarkE1RealAARounds measures RealAA's fixed-schedule round count
// against Theorem 3's R_RealAA(D, eps) formula across input spreads and
// party counts. The n=64 cases double as the substrate throughput gauge:
// they exercise the multi-word suspicion masks and put ~4x more gradecast
// instances per round through the engine than the paper-scale n=7 runs.
func BenchmarkE1RealAARounds(b *testing.B) {
	for _, n := range []int{7, 64} {
		t := (n - 1) / 3
		for _, d := range []float64{10, 100, 1e4, 1e6} {
			b.Run(fmt.Sprintf("n=%d/D=%g", n, d), func(b *testing.B) {
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = d * float64(i) / float64(n-1)
				}
				var rounds int
				for i := 0; i < b.N; i++ {
					outputs, _, err := realaa.RunReal(n, t, inputs, d, 1, true, nil)
					if err != nil {
						b.Fatal(err)
					}
					rounds = 3*realaa.Iterations(t, d, 1) + 1
					_ = outputs
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(realaa.Rounds(t, d, 1)), "theoryR_RealAA")
			})
		}
	}
}

// BenchmarkE1RealAABatch runs the whole E1 diameter sweep as a single
// sim.RunBatch call: the four executions are independent deterministic
// protocol runs, so the batch runner spreads them across cores. Comparing
// its ns/op against the summed BenchmarkE1RealAARounds n=7 cases measures
// the sweep-level speedup the parallel runner buys.
func BenchmarkE1RealAABatch(b *testing.B) {
	n, t := 7, 2
	ds := []float64{10, 100, 1e4, 1e6}
	cfgs := make([]sim.Config, len(ds))
	for i, d := range ds {
		cfgs[i] = sim.Config{N: n, MaxCorrupt: t, MaxRounds: 3*realaa.Iterations(t, d, 1) + 2}
	}
	machinesFor := func(i int) []sim.Machine {
		d := ds[i]
		inputs := make([]float64, n)
		for p := range inputs {
			inputs[p] = d * float64(p) / float64(n-1)
		}
		machines := make([]sim.Machine, n)
		for p := 0; p < n; p++ {
			m, err := realaa.NewMachine(realaa.Config{
				N: n, T: t, ID: sim.PartyID(p), Tag: "real", StartRound: 1,
				Input: inputs[p], Iterations: realaa.Iterations(t, d, 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			machines[p] = m
		}
		return machines
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunBatch(cfgs, machinesFor); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1ConvergenceUnderSplitVote measures how many iterations honest
// values stay divergent under the strongest implemented attack, which
// Theorem 1 says can be as many as ~t.
func BenchmarkE1ConvergenceUnderSplitVote(b *testing.B) {
	for _, nt := range [][2]int{{7, 2}, {10, 3}, {16, 5}} {
		n, t := nt[0], nt[1]
		b.Run(fmt.Sprintf("n=%d_t=%d", n, t), func(b *testing.B) {
			inputs := make([]float64, n)
			for i := range inputs {
				// Non-symmetric spread: symmetric inputs can neutralize the
				// splitter by coincidence of trimmed windows.
				inputs[i] = float64((i*37 + 13) % 101)
			}
			iters := realaa.Iterations(t, 100, 1)
			var divergent int
			for i := 0; i < b.N; i++ {
				ids := adversary.FirstParties(n, t)
				adv := &adversary.SplitVote{IDs: ids, N: n, T: t, Tag: "real", PerIteration: 1}
				_, histories, err := realaa.RunReal(n, t, inputs, 100, 1, true, adv)
				if err != nil {
					b.Fatal(err)
				}
				divergent = realaa.DivergentIterations(histories, 1e-12)
				_ = iters
			}
			b.ReportMetric(float64(divergent), "divergent_iters")
			b.ReportMetric(float64(t), "budget_t")
		})
	}
}

// BenchmarkE2TreeAARounds sweeps tree families and sizes, reporting measured
// TreeAA rounds next to the c·log|V|/loglog|V| theory curve (Theorem 4).
func BenchmarkE2TreeAARounds(b *testing.B) {
	families := []struct {
		name string
		mk   func(size int) *tree.Tree
	}{
		{"path", tree.NewPath},
		{"caterpillar", func(s int) *tree.Tree { return tree.NewCaterpillar(s/3, 2) }},
		{"spider", func(s int) *tree.Tree { return tree.NewSpider(4, s/4) }},
		{"random", func(s int) *tree.Tree { return tree.RandomPruefer(s, rand.New(rand.NewSource(7))) }},
	}
	for _, f := range families {
		for _, size := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/V=%d", f.name, size), func(b *testing.B) {
				tr := f.mk(size)
				n, t := 4, 1
				inputs := spreadInputs(tr, n)
				var res *core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = core.Run(tr, n, t, inputs, nil)
					if err != nil {
						b.Fatal(err)
					}
				}
				v := float64(tr.NumVertices())
				b.ReportMetric(float64(res.Rounds), "rounds")
				b.ReportMetric(math.Log2(v)/math.Log2(math.Log2(v)), "logV_loglogV")
				b.ReportMetric(float64(res.Messages), "msgs")
			})
		}
	}
}

// BenchmarkE3LowerBound computes the Theorem 2 machinery (exact partition
// sup, minimal R with K <= 1) across scales — the paper's lower-bound table.
func BenchmarkE3LowerBound(b *testing.B) {
	for _, tc := range []struct {
		d    float64
		n, t int
	}{
		{1e3, 10, 3}, {1e6, 10, 3}, {1e6, 100, 33}, {1e12, 1000, 333},
	} {
		b.Run(fmt.Sprintf("D=%g_n=%d", tc.d, tc.n), func(b *testing.B) {
			var lb int
			for i := 0; i < b.N; i++ {
				lb = lowerbound.MinRounds(tc.d, tc.n, tc.t)
			}
			b.ReportMetric(float64(lb), "minRounds")
			b.ReportMetric(lowerbound.Theorem2Formula(tc.d, tc.n, tc.t), "thm2formula")
		})
	}
}

// BenchmarkE4DetectVsNoDetect is the paper's central ablation (Section 4):
// RealAA's detect-and-ignore vs the classic DLPSW trimmed midpoint, both
// under their strongest implemented per-protocol splitter. Two metrics per
// protocol: the fixed worst-case round budget (where the asymptotic
// advantage only bites for astronomical D/eps due to the constant 7), and
// the *measured* rounds until the honest range actually dropped to eps
// under attack — where detection wins whenever t < log2(D/eps), because the
// attack budget burns out after ~t iterations while DLPSW is forced to a
// full halving ladder.
func BenchmarkE4DetectVsNoDetect(b *testing.B) {
	n, t := 10, 3
	d := 1e6
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = d * float64((i*37+13)%101) / 101
	}
	measured := func(histories map[sim.PartyID][]float64, roundsPerIter int) float64 {
		return float64(realaa.ConvergenceRound(histories, 1, roundsPerIter))
	}
	b.Run("RealAA", func(b *testing.B) {
		var conv float64
		for i := 0; i < b.N; i++ {
			ids := adversary.FirstParties(n, t)
			adv := &adversary.SplitVote{IDs: ids, N: n, T: t, Tag: "real", PerIteration: 1}
			_, histories, err := realaa.RunReal(n, t, inputs, d, 1, true, adv)
			if err != nil {
				b.Fatal(err)
			}
			conv = measured(histories, 3)
		}
		b.ReportMetric(float64(3*realaa.Iterations(t, d, 1)+1), "budget_rounds")
		b.ReportMetric(conv, "measured_rounds")
	})
	b.Run("DLPSW", func(b *testing.B) {
		var conv float64
		for i := 0; i < b.N; i++ {
			ids := adversary.FirstParties(n, t)
			adv := &adversary.DLPSWSplitter{IDs: ids, N: n, Tag: "real"}
			_, histories, err := realaa.RunReal(n, t, inputs, d, 1, false, adv)
			if err != nil {
				b.Fatal(err)
			}
			conv = measured(histories, 1)
		}
		b.ReportMetric(float64(realaa.DLPSWIterations(d, 1)+1), "budget_rounds")
		b.ReportMetric(conv, "measured_rounds")
	})
}

// BenchmarkE5TreeAAVsBaseline regenerates the headline comparison: TreeAA's
// O(log V / loglog V) rounds vs the iteration-based O(log D) baseline on
// high-diameter trees, plus the low-diameter regime where the baseline's
// D-dependence wins.
func BenchmarkE5TreeAAVsBaseline(b *testing.B) {
	shapes := []struct {
		name string
		tr   *tree.Tree
	}{
		{"highDiam_path1024_shortcut", tree.NewPath(1024)},    // Section 4 single phase
		{"highDiam_caterpillar", tree.NewCaterpillar(342, 2)}, // two-phase, D=343
		{"midDiam_spider", tree.NewSpider(4, 128)},
		{"lowDiam_binary", tree.NewCompleteKAry(2, 9)}, // 1023 vertices, D=18
	}
	for _, s := range shapes {
		n, t := 4, 1
		inputs := spreadInputs(s.tr, n)
		b.Run(s.name+"/TreeAA", func(b *testing.B) {
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.Run(s.tr, n, t, inputs, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Messages), "msgs")
		})
		b.Run(s.name+"/BaselineLogD", func(b *testing.B) {
			var res *sim.Result
			var err error
			for i := 0; i < b.N; i++ {
				_, res, err = baseline.Run(s.tr, n, t, inputs, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Messages), "msgs")
		})
	}
}

// BenchmarkE5bExactAgreementCost shows the alternative TreeAA avoids
// (Section 6's remark): exact agreement via authenticated Byzantine
// broadcast costs t+1 = O(n) rounds, exploding as n grows while TreeAA's
// round count stays flat.
func BenchmarkE5bExactAgreementCost(b *testing.B) {
	tr := tree.NewPath(64)
	for _, n := range []int{4, 7, 13} {
		t := (n - 1) / 3
		inputs := spreadInputs(tr, n)
		b.Run(fmt.Sprintf("n=%d/DolevStrong", n), func(b *testing.B) {
			keys, err := exactaa.NewKeyring(n, nil)
			if err != nil {
				b.Fatal(err)
			}
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				_, res, err = exactaa.RunWithKeys(tr, keys, n, t, inputs, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
		b.Run(fmt.Sprintf("n=%d/TreeAA", n), func(b *testing.B) {
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.Run(tr, n, t, inputs, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
	}
}

// BenchmarkE5cAsyncBaselineDepth measures the asynchronous NR-style tree
// protocol's causal depth (async rounds) across diameters — the model the
// paper's reference [33] lives in, where O(log D) "remains the state of the
// art". Depth per iteration is a constant (RBC + witness), so depth grows
// ~log D while sync TreeAA's rounds grow ~log V/loglog V.
func BenchmarkE5cAsyncBaselineDepth(b *testing.B) {
	for _, size := range []int{17, 65, 257} {
		b.Run(fmt.Sprintf("D=%d", size-1), func(b *testing.B) {
			tr := tree.NewPath(size)
			n, t := 4, 1
			inputs := spreadInputs(tr, n)
			d, _, _ := tr.Diameter()
			iters := async.TreeIterations(d)
			var depth int
			for i := 0; i < b.N; i++ {
				machines := make([]async.Machine, n)
				for p := 0; p < n; p++ {
					machines[p] = async.NewTreeAA(tr, n, t, async.PartyID(p), inputs[p], iters)
				}
				res, err := async.Run(async.Config{N: n, MaxDeliveries: 5_000_000}, machines)
				if err != nil {
					b.Fatal(err)
				}
				depth = res.Depth
			}
			b.ReportMetric(float64(depth), "async_depth")
			b.ReportMetric(float64(iters), "iterations")
			b.ReportMetric(math.Log2(float64(d)), "log2D")
		})
	}
}

// BenchmarkE6ResilienceSweep runs TreeAA at the maximum tolerated corruption
// (t = floor((n-1)/3)) under the SplitVote attack for growing n.
func BenchmarkE6ResilienceSweep(b *testing.B) {
	tr := tree.NewPath(128)
	for _, n := range []int{4, 7, 13, 22} {
		t := (n - 1) / 3
		b.Run(fmt.Sprintf("n=%d_t=%d", n, t), func(b *testing.B) {
			inputs := spreadInputs(tr, n)
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				ids := adversary.FirstParties(n, t)
				adv := &adversary.SplitVote{IDs: ids, N: n, T: t, Tag: core.TagPathsFinder, PerIteration: 1}
				res, err = core.Run(tr, n, t, inputs, adv)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Messages), "msgs")
		})
	}
}

// BenchmarkE9CrashModel measures the crash-fault model of Fekete's papers
// [18, 19]: each partial crash splits the survivors' views once; divergent
// iterations equal the number of partial-crash rounds, and one clean round
// restores exact agreement.
func BenchmarkE9CrashModel(b *testing.B) {
	n := 8
	inputs := []float64{0, 100, 40, 60, 20, 80, 50, 30}
	var divergent int
	for i := 0; i < b.N; i++ {
		adv := &crashaa.PartialCrash{
			IDs:     []sim.PartyID{6, 7},
			Rounds:  []int{1, 2},
			Cutoffs: []int{3, 3},
		}
		_, histories, err := crashaa.Run(n, inputs, 5, adv)
		if err != nil {
			b.Fatal(err)
		}
		divergent = realaa.DivergentIterations(histories, 1e-12)
	}
	b.ReportMetric(float64(divergent), "divergent_iters")
	b.ReportMetric(2, "partial_crash_rounds")
}

// BenchmarkE7ExactAASigning isolates the cryptographic cost of the
// authenticated comparator (ed25519 sign+verify per chain hop).
func BenchmarkE7ExactAASigning(b *testing.B) {
	keys, err := exactaa.NewKeyring(8, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := keys.Sign(0, "bench", 0, 5)
		if !keys.Verify(0, "bench", 0, 5, sig) {
			b.Fatal("verify failed")
		}
	}
}

// --- Substrate microbenchmarks (F3-adjacent: the ListConstruction and LCA
// machinery of Section 6 and the hull/safe-area machinery of Section 2).

func BenchmarkListConstruction(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("V=%d", size), func(b *testing.B) {
			tr := tree.RandomPruefer(size, rand.New(rand.NewSource(3)))
			// The canonical root's list is compiled once per Tree and
			// shared; any other root still pays the construction timed here
			// (the same DFS and sparse table).
			root := tree.VertexID(size / 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.ListConstruction(tr, root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewMachines is the per-execution construction cost: the 16 parties
// of one TreeAA execution on a tree whose tables are already compiled.
func BenchmarkNewMachines(b *testing.B) {
	tr := tree.NewRandom(4096, rand.New(rand.NewSource(1)))
	n, t := 16, 5
	inputs := spreadInputs(tr, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			if _, err := core.NewMachine(core.Config{Tree: tr, N: n, T: t, ID: sim.PartyID(p), Input: inputs[p]}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLCAQueries(b *testing.B) {
	tr := tree.RandomPruefer(1<<14, rand.New(rand.NewSource(5)))
	l, err := tree.ListConstruction(tr, tr.Root())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	n := tr.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := tree.VertexID(rng.Intn(n))
		v := tree.VertexID(rng.Intn(n))
		_ = l.LCA(u, v)
	}
}

func BenchmarkConvexHull(b *testing.B) {
	tr := tree.RandomPruefer(1<<14, rand.New(rand.NewSource(8)))
	rng := rand.New(rand.NewSource(9))
	s := make([]tree.VertexID, 16)
	for i := range s {
		s[i] = tree.VertexID(rng.Intn(tr.NumVertices()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.ConvexHull(s)
	}
}

func BenchmarkSafeArea(b *testing.B) {
	tr := tree.RandomPruefer(1<<12, rand.New(rand.NewSource(10)))
	rng := rand.New(rand.NewSource(11))
	m := make([]tree.VertexID, 16)
	for i := range m {
		m[i] = tree.VertexID(rng.Intn(tr.NumVertices()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.SafeArea(m, 5)
	}
}

func BenchmarkProjection(b *testing.B) {
	tr := tree.RandomPruefer(1<<14, rand.New(rand.NewSource(12)))
	_, a, c := tr.Diameter()
	path := tr.Path(a, c)
	n := tr.NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tr.ProjectOntoPath(path, tree.VertexID(i%n))
	}
}

func BenchmarkTreeAAEndToEnd(b *testing.B) {
	for _, n := range []int{4, 7, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := tree.NewPath(256)
			t := (n - 1) / 3
			inputs := spreadInputs(tr, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(tr, n, t, inputs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelCells runs the four cells of the layered benchmark's
// `kernel-batch` workload (bench/kernel.go) one sub-benchmark each — spaces
// parsed once, inputs rotated through a fixed pool — so a kernel change can
// be sized per cell with `go test -bench KernelCells -cpuprofile`.
func BenchmarkKernelCells(b *testing.B) {
	cells := []struct {
		space, adversary string
		n, t             int
	}{
		{"path:1024", "splitvote", 16, 5},
		{"random:4096", "", 16, 5},
		{"path:2048", "splitvote", 32, 10},
		{"graph:cliquechain:8:6", "", 16, 5},
	}
	const pool = 64
	for _, c := range cells {
		name := fmt.Sprintf("%s/n=%d", c.space, c.n)
		if c.adversary != "" {
			name += "/" + c.adversary
		}
		b.Run(name, func(b *testing.B) {
			sp, err := cli.ParseSpaceSpec(c.space, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			inputs := make([][]tree.VertexID, pool)
			for i := range inputs {
				if inputs[i], err = sp.ParseInputs(sp.RotateInputs(c.n, rng.Intn(sp.NumVertices())), c.n); err != nil {
					b.Fatal(err)
				}
			}
			machines := make([]sim.Machine, c.n)
			var rounds, msgs int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{N: c.n, MaxCorrupt: c.t, MaxRounds: sp.Rounds() + 2}
				for p := range machines {
					if machines[p], _, err = sp.NewMachine(c.n, c.t, sim.PartyID(p), inputs[i%pool][p]); err != nil {
						b.Fatal(err)
					}
				}
				if c.adversary != "" {
					if cfg.Adversary, _, err = sp.BuildAdversary(c.adversary, c.n, c.t, 1); err != nil {
						b.Fatal(err)
					}
				}
				res, err := sim.Run(cfg, machines)
				if err != nil {
					b.Fatal(err)
				}
				rounds, msgs = res.Rounds, res.Messages
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}
