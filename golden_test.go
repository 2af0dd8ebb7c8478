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
