package treeaa

// Golden-execution regression: a fully deterministic TreeAA run (fixed
// tree, inputs, adversary and seeds) must produce a byte-identical
// round-by-round fingerprint across refactors. Any intentional protocol
// change will fail this test — regenerate with:
//
//	go test -run TestGoldenExecution -update .
//
// and review the diff of testdata/golden_execution.txt like a protocol
// change log.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestGoldenExecution(t *testing.T) {
	tr := tree.Figure3Tree()
	n, tc := 4, 1
	inputs := []tree.VertexID{
		tr.MustVertex("v3"), tr.MustVertex("v6"), tr.MustVertex("v5"), tr.MustVertex("v8"),
	}
	ids := adversary.FirstParties(n, tc)
	adv := &adversary.Compose{Strategies: []sim.Adversary{
		&adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: core.TagPathsFinder, PerIteration: 1},
		&adversary.RandomNoise{IDs: ids, N: n, Tag: core.TagProjection,
			StartRound: core.PathsFinderRounds(tr, tc) + 1, Seed: 7, MaxVal: 16},
	}}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	var trace sim.Trace
	res, err := sim.Run(sim.Config{
		N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2,
		Adversary: adv, Trace: &trace,
	}, machines)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "tree=figure3 n=%d t=%d adversary=splitvote+noise\n", n, tc)
	for _, r := range trace.Rounds {
		fmt.Fprintf(&sb, "round %02d: msgs=%d bytes=%d done=%v\n", r.Round, r.Messages, r.Bytes, r.NewlyDone)
	}
	for p := sim.PartyID(0); int(p) < n; p++ {
		if v, ok := res.Outputs[p]; ok {
			fmt.Fprintf(&sb, "output p%d=%s\n", p, tr.Label(v.(tree.VertexID)))
		}
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "golden_execution.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("execution fingerprint changed (regenerate with -update if intentional):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenExecutionManyFaults pins executions at t >= 2, where the
// output phase stops at its ε-witness instead of re-gradecasting settled
// values to the schedule's end: a splitvote run at n = 7, t = 2 and an
// honest run at n = 16, t = 5 on a random tree. Regenerate with
//
//	go test -run TestGoldenExecutionManyFaults -update .
func TestGoldenExecutionManyFaults(t *testing.T) {
	var sb strings.Builder
	for _, c := range []struct {
		space, adversary string
		n, t             int
	}{
		{"spider:3:8", "splitvote", 7, 2},
		{"random:4096", "none", 16, 5},
	} {
		sp, err := cli.ParseSpaceSpec(c.space, 1)
		if err != nil {
			t.Fatal(err)
		}
		inputs := sp.SpreadInputs(c.n)
		machines := make([]sim.Machine, c.n)
		for p := range machines {
			if machines[p], _, err = sp.NewMachine(c.n, c.t, sim.PartyID(p), inputs[p]); err != nil {
				t.Fatal(err)
			}
		}
		adv, _, err := sp.BuildAdversary(c.adversary, c.n, c.t, 1)
		if err != nil {
			t.Fatal(err)
		}
		var trace sim.Trace
		res, err := sim.Run(sim.Config{
			N: c.n, MaxCorrupt: c.t, MaxRounds: sp.Rounds() + 2,
			Adversary: adv, Trace: &trace,
		}, machines)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "tree=%s n=%d t=%d adversary=%s\n", c.space, c.n, c.t, c.adversary)
		for _, r := range trace.Rounds {
			fmt.Fprintf(&sb, "round %02d: msgs=%d bytes=%d done=%v\n", r.Round, r.Messages, r.Bytes, r.NewlyDone)
		}
		for p := sim.PartyID(0); int(p) < c.n; p++ {
			if v, ok := res.Outputs[p]; ok {
				fmt.Fprintf(&sb, "output p%d=%s\n", p, sp.Label(v.(tree.VertexID)))
			}
		}
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "golden_execution_many_faults.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("execution fingerprint changed (regenerate with -update if intentional):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
