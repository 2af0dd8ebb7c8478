package chaos

import (
	"reflect"
	"strings"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/overlay"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

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
	got, err := overlay.Cluster(cfg(&treeTrace), machines(), overlay.Options{Branching: branching})
	if err != nil {
		t.Fatalf("overlay cluster: %v", err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(treeTrace, simTrace) {
		t.Errorf("results diverge from the oracle\ntree: %+v\n sim: %+v", got, want)
	}
}

// TestOverlayRejectsLinkFaults pins the gate cmd/node -overlay applies
// (Plan.Refuse): every clause names a party-to-party link, which the
// overlay's relay hops are not, so only the empty plan rides it, and a
// refusal names the plan's first clause family.
func TestOverlayRejectsLinkFaults(t *testing.T) {
	for spec, family := range map[string]string{"": "", "lat:1ms": "lat", "stall:p2@r1-2": "stall",
		"drop:p0-p1@r2": "drop", "partition:{0-1|2-3}@r2": "partition", "drop:p1@r2,lat:1ms±500µs": "lat"} {
		err := MustParse(spec).Refuse("-overlay", "relay hops are not party links")
		if (err == nil) != (family == "") || (err != nil && !strings.Contains(err.Error(), "the "+family+" clauses")) {
			t.Errorf("Refuse(%q) = %v, want a refusal naming %q", spec, err, family)
		}
	}
}
