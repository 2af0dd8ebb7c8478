// Go timing benchmarks: the four experiment gauges EXPERIMENTS.md cites by
// ns/op (E1, E5b, E7), the substrate microbenchmarks, and the per-cell
// sizing benchmarks of the layered benchmark's workloads. They time work;
// they count nothing. Every round, message and convergence count of the
// paper's tables comes from the experiment catalog (internal/experiments,
// printed by cmd/experiments, pinned by experiments_test.go), and every
// end-to-end performance number from bench/.
package treeaa

import (
	"fmt"
	"math/rand"
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/exactaa"
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

// BenchmarkE1RealAARounds times one RealAA execution on its fixed
// schedule across input spreads and party counts. The n=64 cases double as the substrate throughput gauge:
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
				for i := 0; i < b.N; i++ {
					if _, _, err := realaa.RunReal(n, t, inputs, d, 1, true, nil); err != nil {
						b.Fatal(err)
					}
				}
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

// BenchmarkE5bExactAgreementCost times the alternative TreeAA avoids
// (Section 6's remark): exact agreement via authenticated Byzantine
// broadcast, whose signature chains grow with n, beside TreeAA on the same
// tree. The round counts are the E5b golden.
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
			for i := 0; i < b.N; i++ {
				if _, _, err := exactaa.RunWithKeys(tr, keys, n, t, inputs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/TreeAA", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(tr, n, t, inputs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// kernelCells are the four cells of the layered benchmark's `kernel-batch`
// workload (bench/kernel.go).
var kernelCells = []struct {
	space, adversary string
	n, t             int
}{
	{"path:1024", "splitvote", 16, 5},
	{"random:4096", "", 16, 5},
	{"path:2048", "splitvote", 32, 10},
	{"graph:cliquechain:8:6", "", 16, 5},
}

// BenchmarkKernelCells runs the kernelCells one sub-benchmark each — spaces
// parsed once, inputs rotated through a fixed pool — so a kernel change can
// be sized per cell with `go test -bench KernelCells -cpuprofile`.
func BenchmarkKernelCells(b *testing.B) {
	const pool = 64
	for _, c := range kernelCells {
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

// BenchmarkParseSpaces sizes the space-construction layer every cold spec
// pays: `cli.ParseSpaceSpec` on the four `kernel-batch` specs, the
// `serve-closed` hot spec and `serve-open`'s cold `random:64`. The
// `/compiled` variant adds the first query, which compiles the protocol
// tree's rooted tables (a daemon pays both for every session it serves).
func BenchmarkParseSpaces(b *testing.B) {
	for _, spec := range []string{
		"path:1024", "random:4096", "path:2048", "graph:cliquechain:8:6", "spider:3:3", "random:64",
	} {
		for _, compile := range []bool{false, true} {
			name := spec
			if compile {
				name += "/compiled"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sp, err := cli.ParseSpaceSpec(spec, 1)
					if err != nil {
						b.Fatal(err)
					}
					if compile {
						sp.ProtocolTree().Diameter()
					}
				}
			})
		}
	}
}
