package main

import (
	"testing"
	"time"
)

// TestSessionCoversModeAndFabric: a sync, an async and an overlay seat
// launched with otherwise identical flags derive three different session
// ids, so a mixed fleet is refused at the handshake instead of wedging on
// barriers half of it never sends.
func TestSessionCoversModeAndFabric(t *testing.T) {
	addrs := []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003", "127.0.0.1:7004"}
	id := func(mode, overlaySpec string) uint64 {
		return sessionID(mode, overlaySpec, "path:16", "", "none", 4, 1, 1, "", 10*time.Second, 30*time.Second, addrs)
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
