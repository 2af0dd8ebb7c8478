package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestRunServeRejectsDestructivePlans pins the contract boundary: the mux
// has no reconnect path, so drop clauses must be refused before any daemon
// starts.
func TestRunServeRejectsDestructivePlans(t *testing.T) {
	for _, plan := range []string{"drop(from=0,to=1,round=2)", "drop(from=1,round=3)", "lat(base=1ms)+drop(from=2,round=2)"} {
		_, err := RunServe(ServeSpec{Tree: "path:8", N: 4, Sessions: 1, Adversary: plan,
			TTL: time.Minute, SetupTimeout: 5 * time.Second, RoundTimeout: 10 * time.Second})
		if err == nil {
			t.Errorf("plan %q: destructive plan accepted", plan)
		} else if !strings.Contains(err.Error(), "delay faults only") {
			t.Errorf("plan %q: wrong rejection: %v", plan, err)
		}
	}
}

// TestServeSoakUnderChaos is the satellite soak: ≥32 concurrent muxed
// sessions on a 4-daemon cluster with latency, a stall and a partition
// injected under the shared links; every session must decide with a Result
// DeepEqual to its sequential oracle.
func TestServeSoakUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for _, space := range []string{"spider:3:3", "graph:cliquechain:3:4"} {
		rep, err := RunServe(ServeSpec{
			Tree:         space,
			N:            4,
			Seed:         7,
			Sessions:     32,
			Adversary:    "lat(base=1ms,jitter=1ms)+stall(from=1,rounds=2.3,dur=10ms)+part(a=0.1,b=2.3,rounds=4.5,heal=20ms)",
			TTL:          2 * time.Minute,
			SetupTimeout: 10 * time.Second,
			RoundTimeout: 60 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: RunServe: %v", space, err)
		}
		if !rep.Passed() {
			t.Fatalf("%s: soak failed: decided %d/%d, oracle matches %d/%d, err %q",
				space, rep.Decided, rep.Sessions, rep.OracleMatches, rep.Sessions, rep.Err)
		}
		if rep.Delays == 0 {
			t.Errorf("%s: latency plan injected no delays — chaos not reaching the mux links", space)
		}
	}
}
