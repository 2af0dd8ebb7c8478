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
	for _, plan := range []string{"drop:p0-p1@r2", "drop:p1@r3", "lat:1ms,drop:p2@r2"} {
		_, err := RunServe(ServeSpec{Tree: "path:8", N: 4, Sessions: 1, Plan: plan,
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
			Plan:         "lat:1ms±1ms,stall:p1@r2-3:10ms,partition:{0-1|2-3}@r4-5:20ms",
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
