package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenSpec = "lat(base=2ms,jitter=1ms)+stall(from=1,rounds=2.3,dur=10ms)+drop(from=0,to=2,round=2)+part(a=0.1,b=2.3,rounds=4.5,heal=80ms)"

// shippedPlans is every plan the repository runs or documents — the sweep
// matrix, the Makefile's fleets, the README's examples and the soak, async,
// serve and conn tests — each pinned at seed 42 for n parties (7, or 8 for
// the one plan that names party 7).
var shippedPlans = []struct {
	spec string
	n    int
}{
	{"none", 7},
	{"lat(base=1ms,jitter=1ms)", 7},
	{"stall(from=1,rounds=2.3,dur=5ms)", 7},
	{"drop(from=0,to=2,round=2)", 7},
	{"part(a=0.1,b=2.3,rounds=2,heal=40ms)", 7},
	{"lat(base=500us,jitter=500us)+drop(from=2,round=3)", 7},
	{"lat(base=500us,jitter=500us)+drop(from=0,to=2,round=2)", 7},
	{"lat(base=20ms,jitter=15ms,from=2)", 7},
	{"lat(base=200ms,jitter=150ms,from=2)", 7},
	{"lat(base=5ms,jitter=3ms)+stall(from=3,rounds=2.4)+drop(from=5,round=3)+part(a=0.1.2,b=3.4.5.6.7,rounds=6.7)", 8},
	{"lat(base=2ms,jitter=1ms)", 7},
	{"drop(from=1,round=2)", 7},
	{"lat(base=1ms,jitter=1ms)+drop(from=0,to=2,round=2)", 7},
	{"lat(base=200us,jitter=200us)", 7},
	{"lat(base=100us,jitter=100us)", 7},
	{"lat(base=300us,jitter=300us)", 7},
	{"drop(from=0,to=2,round=1)", 7},
	{"drop(from=2,round=3)", 7},
	{"drop(from=0,to=1,round=2)", 7},
	{"drop(from=1,round=3)", 7},
	{"lat(base=1ms)+drop(from=2,round=2)", 7},
	{"lat(base=1ms,jitter=1ms)+stall(from=1,rounds=2.3,dur=10ms)+part(a=0.1,b=2.3,rounds=4.5,heal=20ms)", 7},
	{"lat(base=100us,jitter=100us)+stall(from=0,rounds=1,dur=100us)", 7},
	{"part(a=0,b=1,rounds=1.2,heal=60ms)", 7},
	{"drop(from=0,to=1,round=3)", 7},
	{"lat(base=200us,jitter=200us)+drop(from=0,to=2,round=2)", 7},
	{"lat(base=1ms,jitter=1ms)+drop(from=0,to=1,round=2)", 7},
}

// TestScheduleGolden pins the materialized fault schedule: identical seeds
// and specs must reproduce identical schedules, across runs and across
// machines (math/rand's sequence for a fixed seed is part of Go's
// compatibility promise).
func TestScheduleGolden(t *testing.T) {
	got := mustPlan(goldenSpec, 4).Schedule(42, 4, 4)
	for _, p := range shippedPlans {
		got += mustPlan(p.spec, p.n).Schedule(42, p.n, 4)
	}
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
	a := mustPlan(goldenSpec, 4).Schedule(7, 5, 6)
	b := mustPlan(goldenSpec, 4).Schedule(7, 5, 6)
	if a != b {
		t.Error("same (spec, seed) produced different schedules")
	}
	if c := mustPlan(goldenSpec, 4).Schedule(8, 5, 6); a == c {
		t.Error("different seeds produced identical latency schedules")
	}
}

func TestScheduleEmptyPlan(t *testing.T) {
	got := mustPlan("none", 3).Schedule(1, 3, 2)
	if got == "" {
		t.Error("empty plan rendered nothing")
	}
}
