package check

import (
	"math/rand"
	"strings"
	"testing"

	"treeaa/internal/cli"
)

// TestAsyncCellsClean: a matrix of honest and Byzantine cells across tree
// shapes runs clean through every scheduler — no validity, agreement, path,
// hull or epsilon violation, and every honest party decides within the
// derived delivery budget.
func TestAsyncCellsClean(t *testing.T) {
	for _, spec := range []string{
		"s=1;tree=path:8;n=4;t=0;in=spread",
		"s=2;tree=star:6;n=4;t=1;in=spread;adv=silent",
		"s=3;tree=spider:3:4;n=4;t=1;in=spread;adv=noise(maxval=30)",
		"s=4;tree=caterpillar:3:2;n=7;t=2;in=spread;adv=equivocator(hi=50,lo=-5)+silent",
		"s=5;tree=random:10;n=4;t=1;in=spread;adv=crash(rounds=3)",
		"s=6;tree=figure3;n=5;t=1;in=0.0.0.0.0;adv=splitvote(per=1)",
		"s=7;tree=star:4;n=4;t=1;in=1.1.1.1;adv=frame(fake=2)", // diameter 2, concentrated
	} {
		c := MustParse(spec)
		res, err := RunAsyncCell(c, AsyncOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %s", spec, v)
		}
		if len(res.Schedulers) != 4 {
			t.Errorf("%s: ran %v, want all four schedulers", spec, res.Schedulers)
		}
		if res.Deliveries == 0 {
			t.Errorf("%s: no deliveries recorded", spec)
		}
	}
}

// TestAsyncCellIncompatible: round-seam constructions have no async
// counterpart and are refused with an explanation, mirroring how the serve
// and node commands reject async-incompatible flags.
func TestAsyncCellIncompatible(t *testing.T) {
	for _, spec := range []string{
		"s=1;tree=path:5;n=7;t=2;in=spread;adv=omit(drop=400)",
		"s=1;tree=path:5;n=4;t=1;in=spread;adv=silent+mutate(rate=100)",
		"s=1;tree=star:6;n=9;t=2;in=1.1.1.1.1.1.1.1.1;adv=evil(val=1000000)",
	} {
		c := MustParse(spec)
		if AsyncCompatible(c) {
			t.Errorf("%s reported async-compatible", spec)
		}
		if _, err := RunAsyncCell(c, AsyncOptions{}); err == nil {
			t.Errorf("RunAsyncCell(%s) succeeded, want incompatibility error", spec)
		} else if !strings.Contains(err.Error(), "async") {
			t.Errorf("%s rejection %q does not explain the async conflict", spec, err)
		}
	}
}

// TestAsyncCellBudgetTooSmall: a starved delivery budget must surface as an
// async-termination violation, not a hang or a silent pass — the checker's
// liveness cell is real.
func TestAsyncCellBudgetTooSmall(t *testing.T) {
	c := MustParse("s=1;tree=path:8;n=4;t=0;in=spread")
	res, err := RunAsyncCell(c, AsyncOptions{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "async-termination" {
			found = true
		}
	}
	if !found {
		t.Errorf("10-delivery budget produced no async-termination violation: %v", res.Violations)
	}
}

// TestAsyncCellDeterministic: the same spec replays to the identical result —
// every randomized component (schedulers, Byzantine behaviors) derives from
// the cell seed, so a violating spec is a deterministic repro.
func TestAsyncCellDeterministic(t *testing.T) {
	spec := "s=11;tree=spider:2:3;n=4;t=1;in=spread;adv=noise(maxval=20)"
	a, err := RunAsyncCell(MustParse(spec), AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAsyncCell(MustParse(spec), AsyncOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Deliveries != b.Deliveries || a.Depth != b.Depth || len(a.Violations) != len(b.Violations) {
		t.Errorf("replay diverged:\n first:  %+v\n second: %+v", a, b)
	}
}

// TestAsyncGeneratedCells: generator output is async-compatible often enough
// to matter, and every compatible generated cell runs clean.
func TestAsyncGeneratedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("generated async battery")
	}
	rng := rand.New(rand.NewSource(23))
	ran := 0
	for i := 0; i < 40 && ran < 12; i++ {
		c := Generate(rng)
		if !AsyncCompatible(c) {
			continue
		}
		ran++
		res, err := RunAsyncCell(c, AsyncOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %s", c, v)
		}
	}
	if ran < 5 {
		t.Fatalf("only %d of 40 generated cells were async-compatible", ran)
	}
}

// TestClauseKindsFollowTheTable walks every row of cli's strategies table
// and holds the checker's two clause partitions to the row's declared kind:
// byzClauseIDCount counts the Byzantine share for a Byzantine row only
// (all t ids alone, the upper half beside an omission clause), and
// AsyncCompatible refuses exactly the omission, modifier and planted rows.
func TestClauseKindsFollowTheTable(t *testing.T) {
	const budget = 3
	names := cli.ClauseNames()
	if len(names) < len(cli.AdversaryNames())+2 {
		t.Fatalf("ClauseNames() = %v: want every adversary name plus none and evil", names)
	}
	for _, name := range names {
		kind := cli.KindOf(name)
		alone := &Cell{T: budget, Clauses: []cli.Clause{{Name: name}}}
		mixed := &Cell{T: budget, Clauses: []cli.Clause{{Name: name}, {Name: "omit"}}}
		wantAlone, wantMixed := 0, 0
		if kind == cli.KindByzantine {
			wantAlone, wantMixed = budget, budget-budget/2
		}
		if got := byzClauseIDCount(alone); got != wantAlone {
			t.Errorf("%s (kind %d): byzClauseIDCount alone = %d, want %d", name, kind, got, wantAlone)
		}
		if got := byzClauseIDCount(mixed); got != wantMixed {
			t.Errorf("%s (kind %d): byzClauseIDCount beside omit = %d, want %d", name, kind, got, wantMixed)
		}
		wantAsync := kind != cli.KindOmission && kind != cli.KindModifier && kind != cli.KindPlanted
		if got := AsyncCompatible(alone); got != wantAsync {
			t.Errorf("%s (kind %d): AsyncCompatible = %v, want %v", name, kind, got, wantAsync)
		}
	}
}
