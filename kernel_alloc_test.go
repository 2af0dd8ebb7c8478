package treeaa

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/sim"
)

// TestKernelCellsAllocations bounds the allocations of sim.Run alone — the
// machines and the adversary are built outside the count, as the layered
// benchmark's sim.allocs_per_run counts them — on each kernelCells cell.
// The bounds are about 1.2 times the counts of an execution whose RealAA
// machines write an iteration's payloads into one block and whose lane
// readers share the first reader's echo and vote vectors; boxing each
// payload, or cloning those vectors per reader, costs about twice as much.
func TestKernelCellsAllocations(t *testing.T) {
	// Measured 626, 469, 636 and 50; boxed payloads and per-reader clones
	// cost 1379, 1728, 1569 and 160.
	limits := map[string]uint64{
		"path:1024":             750,
		"random:4096":           560,
		"path:2048":             760,
		"graph:cliquechain:8:6": 60,
	}
	for _, c := range kernelCells {
		sp, err := cli.ParseSpaceSpec(c.space, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		inputs, err := sp.ParseInputs(sp.RotateInputs(c.n, rng.Intn(sp.NumVertices())), c.n)
		if err != nil {
			t.Fatal(err)
		}
		// The fewest allocations of a few runs: a run's own count is fixed,
		// anything else the process allocates meanwhile only adds.
		best := ^uint64(0)
		for range 3 {
			cfg := sim.Config{N: c.n, MaxCorrupt: c.t, MaxRounds: sp.Rounds() + 2}
			machines := make([]sim.Machine, c.n)
			for p := range machines {
				if machines[p], _, err = sp.NewMachine(c.n, c.t, sim.PartyID(p), inputs[p]); err != nil {
					t.Fatal(err)
				}
			}
			if c.adversary != "" {
				if cfg.Adversary, _, err = sp.BuildAdversary(c.adversary, c.n, c.t, 1); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := sim.Run(cfg, machines)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, after.Mallocs-before.Mallocs)
		}
		name := fmt.Sprintf("%s n=%d %s", c.space, c.n, c.adversary)
		t.Logf("%s: %d allocations", name, best)
		if limit := limits[c.space]; best > limit {
			t.Errorf("%s: sim.Run allocates %d times, want at most %d", name, best, limit)
		}
	}
}
