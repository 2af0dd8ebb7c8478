package overlay

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/crashaa"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
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
// byte counts, per-round trace — exactly. The branching sweep covers the
// degenerate star (every party a sub-leader... of none), a deep skinny tree
// and the balanced automatic shape.
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
			inputs, err := sp.ParseInputs(sp.RotateInputs(n, branching+1), n)
			if err != nil {
				t.Fatal(err)
			}

			var simTrace sim.Trace
			simCfg := sim.Config{N: n, MaxCorrupt: 2, MaxRounds: sp.Rounds() + 2, Trace: &simTrace}
			want, err := sim.Run(simCfg, machines(inputs))
			if err != nil {
				t.Fatalf("%s branching %d: sim.Run: %v", spec, branching, err)
			}

			var treeTrace sim.Trace
			treeCfg := sim.Config{N: n, MaxCorrupt: 2, MaxRounds: sp.Rounds() + 2, Trace: &treeTrace}
			got, err := Cluster(treeCfg, machines(inputs), Options{Branching: branching})
			if err != nil {
				t.Fatalf("%s branching %d: Cluster: %v", spec, branching, err)
			}

			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s branching %d: results diverge\ntree: %+v\n sim: %+v", spec, branching, got, want)
			}
			if !reflect.DeepEqual(treeTrace, simTrace) {
				t.Errorf("%s branching %d: traces diverge\ntree: %+v\n sim: %+v", spec, branching, treeTrace, simTrace)
			}
		}
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
		{"rate limit", func(c *sim.Config) { c.MaxMessagesPerParty = 5 }, "MaxMessagesPerParty"},
		{"tamper", func(c *sim.Config) {
			c.Tamper = func(r int, m sim.Message) (sim.Message, bool) { return m, false }
		}, "tamper"},
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

// TestParseSpec pins the -overlay / -transport tree[:b] spec grammar.
func TestParseSpec(t *testing.T) {
	if b, err := ParseSpec("tree"); err != nil || b != 0 {
		t.Errorf("ParseSpec(tree) = %d, %v", b, err)
	}
	if b, err := ParseSpec("tree:16"); err != nil || b != 16 {
		t.Errorf("ParseSpec(tree:16) = %d, %v", b, err)
	}
	for _, bad := range []string{"", "mesh", "tree:", "tree:0", "tree:-2", "tree:x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestRunProcessRefusals: the two roles the relay fabric cannot host — an
// adversary (the host seat, or an honest seat of a fleet that has one) and
// an event machine — are refused by RunProcess itself, with the same error
// Cluster gives, and a seat without exactly one role by Seat.Validate. Every
// case fails before anything listens: the addresses are not bindable.
func TestRunProcessRefusals(t *testing.T) {
	const n = 4
	sp, err := cli.ParseSpaceSpec("path:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	machine, _, err := sp.NewMachine(n, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	event, _, err := sp.NewAsyncMachine(n, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	adv, _, err := sp.BuildAdversary("splitvote", n, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := transport.Seat{ID: 0, N: n, Addrs: []string{"!", "!", "!", "!"}, MaxRounds: 5}
	for _, tc := range []struct {
		name string
		edit func(*transport.Seat)
		want string
	}{
		{"adversary host", func(s *transport.Seat) {
			s.ID, s.Adversary, s.Corrupted = 3, adv, []sim.PartyID{3}
		}, errAdversary.Error()},
		{"honest seat beside an adversary", func(s *transport.Seat) {
			s.Machine, s.Corrupted = machine, []sim.PartyID{3}
		}, errAdversary.Error()},
		{"event machine", func(s *transport.Seat) { s.Event = event }, errEventMachine.Error()},
		{"no role", func(s *transport.Seat) {}, "0 roles set"},
		{"two roles", func(s *transport.Seat) { s.Machine, s.Event = machine, event }, "2 roles set"},
	} {
		seat := base
		tc.edit(&seat)
		_, err := RunProcess(seat, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	cfg := sim.Config{N: n, MaxCorrupt: 1, MaxRounds: 5, Adversary: adv}
	if _, err := Cluster(cfg, make([]sim.Machine, n), Options{}); err != errAdversary {
		t.Errorf("Cluster with an adversary: err = %v, want errAdversary", err)
	}
}
