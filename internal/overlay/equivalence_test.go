package overlay

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"treeaa/internal/adversary"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/crashaa"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// buildMachines constructs the n TreeAA machines for one run. Machines hold
// state, so each driver gets a fresh set.
func buildMachines(t *testing.T, tr *tree.Tree, n, tcorrupt int, inputs []tree.VertexID) []sim.Machine {
	t.Helper()
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: tcorrupt, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

func spreadInputs(tr *tree.Tree, n, seed int) []tree.VertexID {
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i*(tr.NumVertices()-1)/(n-1) + seed) % tr.NumVertices())
	}
	return inputs
}

// TestTreeMatchesSim is the overlay's correctness anchor: across branching
// factors on the paper's path:40 topology and on a block graph (TreeAA on
// the block-cut tree plus the local decode), a relayed execution must
// reproduce the sequential engine's Result — outputs, rounds, message and
// byte counts, per-round trace — exactly, honest and under the omission
// adversaries (omit, and the stop crash fault), whose parties drop their
// own sends. The branching sweep covers the degenerate star (every party a
// sub-leader... of none), a deep skinny tree and the balanced automatic
// shape.
func TestTreeMatchesSim(t *testing.T) {
	const n = 7
	for _, spec := range []string{"path:40", "graph:cliquechain:3:4"} {
		sp, err := cli.ParseSpaceSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Machines hold state, so each driver gets a fresh set.
		machines := func(inputs []tree.VertexID) []sim.Machine {
			ms := make([]sim.Machine, n)
			for i := range ms {
				if ms[i], _, err = sp.NewMachine(n, 2, sim.PartyID(i), inputs[i]); err != nil {
					t.Fatal(err)
				}
			}
			return ms
		}
		for _, branching := range []int{0, 1, 2, 6} {
			for _, advSpec := range []string{"none", "omit(halves=1)", "stop"} {
				inputs, err := sp.ParseInputs(sp.RotateInputs(n, branching+1), n)
				if err != nil {
					t.Fatal(err)
				}
				cfg := func(trace *sim.Trace) sim.Config {
					adv, _, err := sp.BuildAdversary(advSpec, n, 2, int64(branching+1))
					if err != nil {
						t.Fatal(err)
					}
					return sim.Config{N: n, MaxCorrupt: 2, MaxRounds: sp.Rounds() + 2, Adversary: adv, Trace: trace}
				}
				desc := fmt.Sprintf("%s branching %d adversary %s", spec, branching, advSpec)

				var simTrace sim.Trace
				want, err := sim.Run(cfg(&simTrace), machines(inputs))
				if err != nil {
					t.Fatalf("%s: sim.Run: %v", desc, err)
				}
				var treeTrace sim.Trace
				got, err := Cluster(cfg(&treeTrace), machines(inputs), Options{Branching: branching})
				if err != nil {
					t.Fatalf("%s: Cluster: %v", desc, err)
				}

				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: results diverge\ntree: %+v\n sim: %+v", desc, got, want)
				}
				if !reflect.DeepEqual(treeTrace, simTrace) {
					t.Errorf("%s: traces diverge\ntree: %+v\n sim: %+v", desc, treeTrace, simTrace)
				}
			}
		}
	}
}

// TestOverlayInteriorCrash runs crash faults over the tree overlay: a
// sub-leader stops in round 2 and a leaf in round 3, each the adversary's
// stop clause in its own seat, so the stopped sub-leader keeps relaying its
// subtree's traffic while its own sends end. The run must stay
// byte-identical to the sequential sim.Run oracle under the same adversary:
// that equality is the no-lost-message and no-duplicate-delivery assertion
// in its strongest form, since message counts, outputs, rounds and traces
// all enter the comparison.
func TestOverlayInteriorCrash(t *testing.T) {
	tr := tree.NewPath(8)
	const n, branching, tcorrupt = 12, 3, 3
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID((i * (tr.NumVertices() - 1) / (n - 1)) % tr.NumVertices())
	}
	machines := func() []sim.Machine {
		ms := make([]sim.Machine, n)
		for i := 0; i < n; i++ {
			m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: tcorrupt,
				ID: sim.PartyID(i), Input: inputs[i]})
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		return ms
	}
	// Party 1 is a sub-leader (n=12, branching 3 → sub-leaders 1..3), party
	// 7 one of its leaves.
	cfg := func(trace *sim.Trace) sim.Config {
		return sim.Config{N: n, MaxCorrupt: tcorrupt, MaxRounds: core.Rounds(tr, tcorrupt) + 2, Trace: trace,
			Adversary: &adversary.Stop{IDs: []sim.PartyID{1, 7}, N: n, Rounds: []int{2, 3}}}
	}

	var simTrace, treeTrace sim.Trace
	want, err := sim.Run(cfg(&simTrace), machines())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Cluster(cfg(&treeTrace), machines(), Options{Branching: branching})
	if err != nil {
		t.Fatalf("overlay cluster: %v", err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(treeTrace, simTrace) {
		t.Errorf("results diverge from the oracle\ntree: %+v\n sim: %+v", got, want)
	}
}

// crashMachines builds n crashaa machines — the light one-broadcast-per-
// round workload the scale paths use, so fleet size rather than protocol
// weight is what a big-n run measures.
func crashMachines(t *testing.T, n, iters int) []sim.Machine {
	t.Helper()
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := crashaa.NewMachine(crashaa.Config{N: n, ID: sim.PartyID(i),
			Iterations: iters, Input: float64(i % 17)})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

// TestTreeScale256 runs the fleet size the full mesh cannot reach on this
// machine: n = 256 would need ~n²/2 ≈ 33k sockets (130k fds with both ends
// and the per-conn goroutine stacks), while the tree holds every node at
// O(branching) links. Completion, result equality and the per-node peak
// connection count are the assertions; the messages-per-round comparison
// against the mesh lives in bench/ (the mesh-fleet and overlay-fleet
// workloads). The workload is crashaa's one broadcast per round — big-n
// with the full TreeAA machine is a protocol cost, not an overlay property.
func TestTreeScale256(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 256 cluster in -short mode")
	}
	const n, branching, iters = 256, 16, 3

	simCfg := sim.Config{N: n, MaxCorrupt: 1, MaxRounds: iters + 2}
	want, err := sim.Run(simCfg, crashMachines(t, n, iters))
	if err != nil {
		t.Fatal(err)
	}

	var stats metrics.OverlayStats
	var wires metrics.WireStats
	treeCfg := sim.Config{N: n, MaxCorrupt: 1, MaxRounds: iters + 2}
	got, err := Cluster(treeCfg, crashMachines(t, n, iters), Options{
		Branching: branching, Stats: &stats, Wire: &wires,
		// One shared core schedules 256 node main loops; a parent that is
		// merely descheduled must not read as dead.
		FailoverTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results diverge\ntree: %+v\n sim: %+v", got, want)
	}

	lay, _ := NewLayout(n, branching)
	if peak := stats.PeakConns(); peak == 0 || peak > lay.MaxDegree() {
		t.Errorf("peak %d conns/node, want 1..%d", peak, lay.MaxDegree())
	}
	if stats.DedupDropped.Load() != 0 {
		t.Errorf("%d duplicate envelopes in a crash-free run", stats.DedupDropped.Load())
	}
	t.Logf("n=%d: %s", n, stats.String())
	t.Logf("n=%d: physical %s", n, wires.String())
}

// TestTreeRejections pins the explanatory errors for engine features the
// tree cannot host.
func TestTreeRejections(t *testing.T) {
	tr := tree.NewPath(8)
	const n = 4
	inputs := spreadInputs(tr, n, 1)
	base := sim.Config{N: n, MaxCorrupt: 1, MaxRounds: core.Rounds(tr, 1) + 2}

	cases := []struct {
		name string
		mut  func(*sim.Config)
		want string
	}{
		{"adversary", func(c *sim.Config) { c.Adversary = stubAdversary{} }, "rushing adversary"},
		{"adaptive crash", func(c *sim.Config) {
			c.Adversary = &adversary.CrashAt{IDs: []sim.PartyID{3}, Rounds: []int{2}}
		}, "rushing adversary"},
	}
	for _, c := range cases {
		cfg := base
		c.mut(&cfg)
		_, err := Cluster(cfg, buildMachines(t, tr, n, 1, inputs), Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// stubAdversary corrupts party 0 and does nothing — enough to trip the
// overlay's up-front rejection.
type stubAdversary struct{}

func (stubAdversary) Initial() []sim.PartyID { return []sim.PartyID{0} }
func (stubAdversary) Step(int, []sim.Message, map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	return nil, nil
}
