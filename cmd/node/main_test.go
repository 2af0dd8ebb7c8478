package main

import (
	"testing"
	"time"
)

// TestSessionCoversModeAndFabric: a sync and an async seat launched with
// otherwise identical flags derive different session ids, so a mixed fleet
// is refused at the handshake instead of wedging on barriers half of it
// never sends. Every seat runs on the mesh, so the mode is the whole of it.
func TestSessionCoversModeAndFabric(t *testing.T) {
	addrs := []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003", "127.0.0.1:7004"}
	id := func(mode string) uint64 {
		return sessionID(mode, "path:16", "", "none", 4, 1, 1, 10*time.Second, 30*time.Second, addrs)
	}
	if id("sync") == id("async") {
		t.Errorf("-mode sync and -mode async share session %#x", id("sync"))
	}
	if id("sync") != id("sync") {
		t.Error("identical flags derived different sessions")
	}
}
