package chaos

import (
	"reflect"
	"testing"
	"time"

	"treeaa/internal/core"
	"treeaa/internal/metrics"
	"treeaa/internal/overlay"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// TestOverlayInteriorCrash drives the tree overlay's recovery path from a
// parsed chaos plan — the same wiring cmd/node -overlay uses. A sub-leader
// crashes mid-round, so its leaves must re-home to the next sub-leader in
// the ring and pull the stranded frames there; one round later a leaf that
// just re-homed crashes too, restarts blank, and rebuilds through the
// handshake replay. The run must stay byte-identical to the sequential
// sim.Run oracle: that equality is the no-lost-message and
// no-duplicate-delivery assertion in its strongest form, since message
// counts, outputs, rounds and traces all enter the comparison.
func TestOverlayInteriorCrash(t *testing.T) {
	plan := MustParse("crash:p1@r2,crash:p7@r3")
	if plan.Empty() || !plan.NeedsReconnect() {
		t.Fatal("crash plan misclassified as empty or connection-preserving")
	}

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

	cfg := sim.Config{N: n, MaxCorrupt: tcorrupt, MaxRounds: core.Rounds(tr, tcorrupt) + 2}
	want, err := sim.Run(cfg, machines())
	if err != nil {
		t.Fatal(err)
	}

	var stats metrics.OverlayStats
	got, err := overlay.Cluster(cfg, machines(), overlay.Options{
		Branching:       branching,
		Stats:           &stats,
		CrashPlan:       plan.Crashes,
		FailoverTimeout: 500 * time.Millisecond,
		Restart: func(p sim.PartyID) (sim.Machine, error) {
			return core.NewMachine(core.Config{Tree: tr, N: n, T: tcorrupt, ID: p, Input: inputs[p]})
		},
	})
	if err != nil {
		t.Fatalf("overlay cluster under %q: %v", plan.Spec, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results diverge from the oracle\ntree: %+v\n sim: %+v", got, want)
	}
	if fo := stats.Failovers.Load(); fo < 1 {
		t.Errorf("Failovers = %d, want ≥ 1 (orphaned leaves must re-home)", fo)
	}
	if rp := stats.Replayed.Load(); rp < 1 {
		t.Errorf("Replayed = %d, want ≥ 1 (rejoining seats must pull history)", rp)
	}
	if dd := stats.DedupDropped.Load(); dd < 1 {
		t.Errorf("DedupDropped = %d, want ≥ 1 (restarted seats re-flood; the watermark filter must absorb it)", dd)
	}
	t.Logf("interior crash under %q: %s", plan.Spec, stats.String())
}

// TestOverlayRejectsLinkFaults pins the crash-only gate cmd/node -overlay
// applies (Restrict to ClauseCrash): a plan with any link-level clause
// cannot ride the overlay.
func TestOverlayRejectsLinkFaults(t *testing.T) {
	for spec, crashOnly := range map[string]bool{
		"":                          true,
		"crash:p1@r2":               true,
		"lat:1ms":                   false,
		"stall:p2@r1-2":             false,
		"drop:p0-p1@r2":             false,
		"partition:{0-1|2-3}@r2":    false,
		"crash:p1@r2,lat:1ms±500µs": false,
	} {
		err := MustParse(spec).Restrict("-overlay", "relay hops are not party links", ClauseCrash)
		if (err == nil) != crashOnly {
			t.Errorf("Restrict(%q) to crash clauses = %v, want accepted = %v", spec, err, crashOnly)
		}
	}
}
