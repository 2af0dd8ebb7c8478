package chaos_test

import (
	"testing"

	"treeaa/internal/check"
)

// soakCell runs one sync soak cell through check.RunCell's TCP
// differential: the cell's link clauses go under every loopback link and
// the TCP Result must equal the sequential oracle's.
func soakCell(t *testing.T, spec string) *check.CellResult {
	t.Helper()
	res, err := check.RunCell(check.MustParse(spec), check.Options{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TCPChecked {
		t.Fatalf("%s: TCP differential did not run", spec)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	return res
}

// TestSoakNoChaos: a cell without link clauses injects nothing and still
// equals the oracle. The p99 round latency a seat records under the
// injector's stats is transport's TestClusterMatchesSimNoAdversary.
func TestSoakNoChaos(t *testing.T) {
	res := soakCell(t, "s=1;tree=path:16;n=4;t=1;in=spread")
	if res.LinkFaults != 0 {
		t.Errorf("cell without link clauses injected %d faults", res.LinkFaults)
	}
	if res.Rounds == 0 || res.Messages == 0 {
		t.Errorf("rounds = %d, messages = %d; want non-zero", res.Rounds, res.Messages)
	}
}

// TestSoakLatencyOracle: pure delay keeps the run byte-identical to the
// sequential oracle, and the injected-fault counts are themselves
// deterministic — every protocol frame is delayed exactly once, so two runs
// of the same cell agree on the count.
func TestSoakLatencyOracle(t *testing.T) {
	const spec = "s=1;tree=path:16;n=4;t=1;in=spread;adv=splitvote+lat(base=200us,jitter=200us)"
	a := soakCell(t, spec)
	if a.LinkFaults == 0 {
		t.Error("latency clause delayed nothing")
	}
	if b := soakCell(t, spec); a.LinkFaults != b.LinkFaults {
		t.Errorf("delays diverged across identical cells: %d vs %d", a.LinkFaults, b.LinkFaults)
	}
}

// TestSoakDropCrash: a dropped connection beside a crashed party — the
// adversary's stop clause, next to a Byzantine host — still yields the
// oracle's Result: the transport resends the lost frames, and the stopped
// party's silence is the engine's. The drop is the cell's only link clause,
// so it is the one fault counted. The reconnect and resend counters the
// repair moves are transport's TestClusterReconnectResend.
func TestSoakDropCrash(t *testing.T) {
	for _, space := range []string{"path:16", "graph:cliquechain:3:4"} {
		res := soakCell(t, "s=1;tree="+space+";n=7;t=2;in=spread;adv=splitvote+stop(rounds=2)+drop(from=0,to=2,round=2)")
		if res.LinkFaults != 1 {
			t.Errorf("%s: %d link faults, want the 1 drop", space, res.LinkFaults)
		}
	}
}

func TestSoakPartition(t *testing.T) {
	if res := soakCell(t, "s=1;tree=path:16;n=4;t=1;in=spread;adv=part(a=0.1,b=2.3,rounds=2,heal=40ms)"); res.LinkFaults == 0 {
		t.Error("partition clause held nothing")
	}
}

// TestSoakConfigErrors: a cell the adversary language cannot build is
// refused before any cluster starts.
func TestSoakConfigErrors(t *testing.T) {
	for spec, why := range map[string]string{
		"s=1;tree=path:16;n=4;t=1;in=spread;adv=jam(dur=5ms)":             "an unknown clause",
		"s=1;tree=path:16;n=4;t=1;in=spread;adv=drop(from=9,round=2)":     "an out-of-range drop",
		"s=1;tree=path:16;n=4;t=1;in=spread;adv=splitvote+stop(rounds=2)": "stop beside splitvote at t = 1",
	} {
		c, err := check.Parse(spec)
		if err == nil {
			_, err = check.RunCell(c, check.Options{TCP: true})
		}
		if err == nil {
			t.Errorf("RunCell accepted %s", why)
		}
	}
}
