package overlay

import (
	"reflect"
	"testing"
	"time"

	"treeaa/internal/core"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// crashRun executes one crash-injected cluster and checks the recovered
// Result against the engine's: a crash plus restart must be invisible in
// everything the protocol can observe.
func crashRun(t *testing.T, plan map[sim.PartyID]int) *metrics.OverlayStats {
	t.Helper()
	tr := tree.NewPath(8)
	const n, branching = 12, 3
	inputs := spreadInputs(tr, n, 4)

	simCfg := sim.Config{N: n, MaxCorrupt: 3, MaxRounds: core.Rounds(tr, 3) + 2}
	want, err := sim.Run(simCfg, buildMachines(t, tr, n, 3, inputs))
	if err != nil {
		t.Fatal(err)
	}

	var stats metrics.OverlayStats
	treeCfg := sim.Config{N: n, MaxCorrupt: 3, MaxRounds: core.Rounds(tr, 3) + 2}
	got, err := Cluster(treeCfg, buildMachines(t, tr, n, 3, inputs), Options{
		Branching: branching,
		Stats:     &stats,
		CrashPlan: plan,
		// Keep the failure detector snappy so a stalled barrier (crash lost
		// in a TCP buffer rather than surfacing as a reset) re-homes fast.
		FailoverTimeout: 500 * time.Millisecond,
		Restart: func(p sim.PartyID) (sim.Machine, error) {
			return core.NewMachine(core.Config{Tree: tr, N: n, T: 3, ID: p, Input: inputs[p]})
		},
	})
	if err != nil {
		t.Fatalf("Cluster with crash plan %v: %v", plan, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan %v: results diverge\ntree: %+v\n sim: %+v", plan, got, want)
	}
	return &stats
}

// TestSubleaderCrashRestart is the tentpole failure drill: an interior node
// dies mid-round, its leaves re-home to the next sub-leader in the ring and
// pull the stranded frames, the supervisor restarts the seat, and the
// restarted node's deterministic re-flood is absorbed by the duplicate
// filter. The Result must match the engine exactly — no lost and no
// double-delivered message.
func TestSubleaderCrashRestart(t *testing.T) {
	// Party 2 is a sub-leader (n=12, branching 3 → sub-leaders 1..3, its
	// leaves 5, 8, 11).
	stats := crashRun(t, map[sim.PartyID]int{2: 2})
	if fo := stats.Failovers.Load(); fo < 1 {
		t.Errorf("Failovers = %d, want ≥ 1 (orphaned leaves must re-home)", fo)
	}
	if dd := stats.DedupDropped.Load(); dd < 1 {
		t.Errorf("DedupDropped = %d, want ≥ 1 (restart re-flood must be absorbed)", dd)
	}
	if rp := stats.Replayed.Load(); rp < 1 {
		t.Errorf("Replayed = %d, want ≥ 1 (rejoin must pull history)", rp)
	}
	t.Logf("sub-leader crash: %s", stats.String())
}

// TestLeafCrashRestart crashes a leaf: nobody re-homes, the restarted seat
// rejoins its deterministic parent and replays forward.
func TestLeafCrashRestart(t *testing.T) {
	stats := crashRun(t, map[sim.PartyID]int{11: 1})
	if rp := stats.Replayed.Load(); rp < 1 {
		t.Errorf("Replayed = %d, want ≥ 1", rp)
	}
	t.Logf("leaf crash: %s", stats.String())
}

// TestRootCrashRestart is the hardest recovery: the root loses every link
// and all barrier state. Sub-leaders redial it until the supervisor brings
// it back; their handshake replays rebuild its mailbox and up-reports, and
// its re-released rounds are ignored as duplicates below.
func TestRootCrashRestart(t *testing.T) {
	stats := crashRun(t, map[sim.PartyID]int{0: 2})
	if fo := stats.Failovers.Load(); fo < 1 {
		t.Errorf("Failovers = %d, want ≥ 1 (sub-leaders re-dial the root)", fo)
	}
	if rp := stats.Replayed.Load(); rp < 1 {
		t.Errorf("Replayed = %d, want ≥ 1 (children must rebuild the root)", rp)
	}
	t.Logf("root crash: %s", stats.String())
}
