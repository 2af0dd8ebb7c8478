package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenSpec = "lat:2ms±1ms,stall:p1@r2-3:10ms,drop:p0-p2@r2,partition:{0-1|2-3}@r4-5:80ms"

// TestScheduleGolden pins the materialized fault schedule: identical seeds
// and specs must reproduce identical schedules, across runs and across
// machines (math/rand's sequence for a fixed seed is part of Go's
// compatibility promise).
func TestScheduleGolden(t *testing.T) {
	got := MustParse(goldenSpec).Schedule(42, 4, 4)
	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("schedule drifted from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := MustParse(goldenSpec).Schedule(7, 5, 6)
	b := MustParse(goldenSpec).Schedule(7, 5, 6)
	if a != b {
		t.Error("same (spec, seed) produced different schedules")
	}
	if c := MustParse(goldenSpec).Schedule(8, 5, 6); a == c {
		t.Error("different seeds produced identical latency schedules")
	}
}

func TestScheduleEmptyPlan(t *testing.T) {
	got := MustParse("").Schedule(1, 3, 2)
	if got == "" {
		t.Error("empty plan rendered nothing")
	}
}
