package main

import (
	"strings"
	"testing"
	"time"

	"treeaa/internal/chaos"
)

// TestSessionCoversModeAndFabric: a sync, an async and an overlay seat
// launched with otherwise identical flags derive three different session
// ids, so a mixed fleet is refused at the handshake instead of wedging on
// barriers half of it never sends.
func TestSessionCoversModeAndFabric(t *testing.T) {
	addrs := []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003", "127.0.0.1:7004"}
	id := func(mode, overlaySpec string) uint64 {
		return sessionID(mode, overlaySpec, "path:16", "", "none", 4, 1, 1, 10*time.Second, 30*time.Second, addrs)
	}
	ids := map[uint64]string{}
	for _, seat := range [][2]string{{"sync", ""}, {"async", ""}, {"sync", "tree:2"}, {"sync", "tree:3"}} {
		got := id(seat[0], seat[1])
		if other, dup := ids[got]; dup {
			t.Errorf("-mode %s -overlay %q shares session %#x with %s", seat[0], seat[1], got, other)
		}
		ids[got] = seat[0] + " " + seat[1]
	}
	if id("sync", "") != id("sync", "") {
		t.Error("identical flags derived different sessions")
	}
}

// TestOverlayRejectsLinkFaults pins the gate -overlay applies: every link
// clause names a party-to-party link, which the overlay's relay hops are
// not, so only a spec without link clauses rides it, and a refusal names
// the spec's link clauses.
func TestOverlayRejectsLinkFaults(t *testing.T) {
	for spec, links := range map[string]string{"none": "", "splitvote+omit(drop=300)": "",
		"lat(base=1ms)": "lat(base=1ms)", "stall(from=2,rounds=1.2)": "stall(from=2,rounds=1.2)",
		"drop(from=0,to=1,round=2)": "drop(from=0,round=2,to=1)", "part(a=0.1,b=2.3,rounds=2)": "part(a=0.1,b=2.3,rounds=2)",
		"splitvote+drop(from=1,round=2)+lat(base=1ms,jitter=500us)": "drop(from=1,round=2)+lat(base=1ms,jitter=500us)"} {
		plan, err := chaos.NewPlan(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		err = checkFlags("sync", "tree:2", spec, nil, plan)
		if (err == nil) != (links == "") || (err != nil && !strings.Contains(err.Error(), `"`+links+`"`)) {
			t.Errorf("-overlay with %q: %v, want a refusal naming %q", spec, err, links)
		}
		if err := checkFlags("sync", "", spec, nil, plan); err != nil {
			t.Errorf("the mesh refused %q: %v", spec, err)
		}
	}
}
