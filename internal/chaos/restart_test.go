package chaos

import (
	"testing"
	"time"
)

// TestServeKillRestart is the durability soak: a journaled 4-daemon
// cluster, 6 sessions decided and acked, 4 more in flight, then kill -9 on
// the victim and a restart. Zero decided sessions may be lost, every
// survivor's Result must DeepEqual sim.Run, mid-kill sessions must not
// wedge, and the healed mesh must decide a fresh wave.
func TestServeKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for _, space := range []string{"spider:3:3", "graph:cliquechain:3:4"} {
		rep, err := RunServeKillRestart(KillRestartSpec{
			Tree:         space,
			N:            4,
			Seed:         7,
			Victim:       1,
			Decided:      6,
			MidKill:      4,
			Fresh:        6,
			JournalDir:   t.TempDir(),
			TTL:          30 * time.Second,
			SetupTimeout: 10 * time.Second,
			RoundTimeout: 60 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: RunServeKillRestart: %v", space, err)
		}
		if !rep.Passed() {
			t.Fatalf("%s: durability contract violated: survived %d/%d, oracle %d/%d, err %q",
				space, rep.SurvivedRestart, rep.DecidedBeforeKill,
				rep.OracleMatches, rep.DecidedBeforeKill, rep.Err)
		}
		if rep.RestoredSealed < int64(rep.DecidedBeforeKill) {
			t.Errorf("%s: restored %d sealed sessions, want >= %d — recovery not exercised",
				space, rep.RestoredSealed, rep.DecidedBeforeKill)
		}
		if rep.MidKillTerminal+rep.MidKillLost == 0 {
			t.Errorf("%s: no mid-kill session observed at all — wave 2 did not run", space)
		}
	}
}

// TestServeGracefulRestart pins satellite 3: a drained restart flushes
// pending decide frames and syncs the journal, so the same contract holds
// with zero tolerance for lost mid-kill opens that were acked.
func TestServeGracefulRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rep, err := RunServeKillRestart(KillRestartSpec{
		Tree:         "path:8",
		N:            4,
		Seed:         3,
		Victim:       2,
		Decided:      4,
		Fresh:        4,
		Graceful:     true,
		JournalDir:   t.TempDir(),
		TTL:          30 * time.Second,
		SetupTimeout: 10 * time.Second,
		RoundTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunServeKillRestart(graceful): %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("graceful restart lost state: survived %d/%d, oracle %d/%d, err %q",
			rep.SurvivedRestart, rep.DecidedBeforeKill,
			rep.OracleMatches, rep.DecidedBeforeKill, rep.Err)
	}
}

// TestKillRestartRejectsBadSpecs pins the harness's input validation.
func TestKillRestartRejectsBadSpecs(t *testing.T) {
	if _, err := RunServeKillRestart(KillRestartSpec{Tree: "path:8", N: 4, Victim: 4, Decided: 1}); err == nil {
		t.Error("out-of-range victim accepted")
	}
	if _, err := RunServeKillRestart(KillRestartSpec{Tree: "path:8", N: 4, Victim: 0, Decided: 0}); err == nil {
		t.Error("zero decided-wave accepted")
	}
}
