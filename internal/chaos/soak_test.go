package chaos

import (
	"testing"
	"time"
)

func soakSpec(plan, adversary string) RunSpec {
	return RunSpec{
		Tree: "path:16", N: 4, T: 1, Seed: 1,
		Plan: plan, Adversary: adversary,
		SetupTimeout: 10 * time.Second, RoundTimeout: 10 * time.Second,
	}
}

func mustPass(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.Passed() {
		t.Fatalf("soak cell failed: oracle=%v valid=%v maxDist=%d err=%q",
			rep.OracleMatch, rep.Valid, rep.MaxDist, rep.Err)
	}
}

func TestSoakNoChaos(t *testing.T) {
	rep, err := Run(soakSpec("", "none"))
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, rep)
	if rep.Delays+rep.Stalls+rep.Drops+rep.Partitions != 0 {
		t.Errorf("empty plan injected faults: %+v", rep)
	}
	if rep.Rounds == 0 || rep.P99 == 0 {
		t.Errorf("rounds = %d, p99 = %v; want non-zero", rep.Rounds, rep.P99)
	}
}

// TestSoakLatencyOracle: pure delay keeps the run byte-identical to the
// sequential oracle, and the injected-fault counts are themselves
// deterministic — every protocol frame is delayed exactly once, so two runs
// of the same cell agree on the Delays counter.
func TestSoakLatencyOracle(t *testing.T) {
	spec := soakSpec("lat:200µs±200µs", "splitvote")
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, a)
	if a.Delays == 0 {
		t.Error("latency plan delayed nothing")
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, b)
	if a.Delays != b.Delays {
		t.Errorf("Delays diverged across identical cells: %d vs %d", a.Delays, b.Delays)
	}
}

// TestSoakDropCrash: a dropped connection beside a crashed party — the
// adversary's stop clause, next to a Byzantine host — still yields the
// oracle's Result: the transport resends the lost frames, and the stopped
// party's silence is the engine's.
func TestSoakDropCrash(t *testing.T) {
	for _, space := range []string{"path:16", "graph:cliquechain:3:4"} {
		spec := soakSpec("drop:p0-p2@r2", "splitvote+stop(rounds=2)")
		spec.Tree, spec.N, spec.T = space, 7, 2
		rep, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		mustPass(t, rep)
		if rep.Drops != 1 {
			t.Errorf("%s: Drops = %d, want 1", space, rep.Drops)
		}
		if rep.Reconnects < 1 || rep.FramesResent == 0 {
			t.Errorf("%s: Reconnects = %d, FramesResent = %d; want ≥ 1 and > 0", space, rep.Reconnects, rep.FramesResent)
		}
	}
}

func TestSoakPartition(t *testing.T) {
	rep, err := Run(soakSpec("partition:{0-1|2-3}@r2:40ms", "none"))
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, rep)
	if rep.Partitions == 0 {
		t.Error("partition plan held nothing")
	}
}

func TestSoakConfigErrors(t *testing.T) {
	bad := soakSpec("jam:5ms", "none")
	if _, err := Run(bad); err == nil {
		t.Error("Run accepted an unknown clause")
	}
	outOfRange := soakSpec("drop:p9@r2", "none")
	if _, err := Run(outOfRange); err == nil {
		t.Error("Run accepted an out-of-range drop")
	}
	// A crashed party is the adversary's stop clause, which mixes with a
	// Byzantine clause only for t ≥ 2.
	mixed := soakSpec("", "splitvote+stop(rounds=2)")
	if _, err := Run(mixed); err == nil {
		t.Error("Run accepted stop beside splitvote at t = 1")
	}
}

func TestSweep(t *testing.T) {
	var seen int
	reports, err := Sweep(SweepConfig{
		Trees: []string{"path:12"}, N: 4, T: 1,
		Seeds:        []int64{1, 2},
		Plans:        []string{"", "lat:100µs±100µs"},
		Adversaries:  []string{"none"},
		SetupTimeout: 10 * time.Second, RoundTimeout: 10 * time.Second,
		Progress: func(*Report) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 || seen != 4 {
		t.Fatalf("got %d reports, %d progress calls; want 4 and 4", len(reports), seen)
	}
	for _, rep := range reports {
		mustPass(t, rep)
	}
	if tab := Table(reports); tab.Len() != 4 {
		t.Errorf("table has %d rows, want 4", tab.Len())
	}
}
