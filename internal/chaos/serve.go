package chaos

import (
	"fmt"
	"time"

	"treeaa/internal/metrics"
	"treeaa/internal/session"
)

// ServeSpec is one serving-layer soak cell: a daemon deployment, a batch of
// concurrent sessions, and link faults injected under the mux links.
type ServeSpec struct {
	Tree      string // cli space spec shared by every session (a tree, or "graph:"-prefixed)
	N, T      int
	Seed      int64
	Adversary string // link clauses only, and delay faults only (see RunServe)
	Sessions  int    // concurrent sessions, inputs rotated per session

	TTL          time.Duration // per-session deadline
	SetupTimeout time.Duration
	RoundTimeout time.Duration
}

// ServeReport is one serving soak cell's outcome.
type ServeReport struct {
	Tree      string `json:"tree"`
	N         int    `json:"n"`
	T         int    `json:"t"`
	Seed      int64  `json:"seed"`
	Adversary string `json:"adversary"`
	Sessions  int    `json:"sessions"`

	Decided       int `json:"decided"`
	OracleMatches int `json:"oracle_matches"`

	Delays     int64 `json:"delays"`
	Stalls     int64 `json:"stalls"`
	Partitions int64 `json:"partitions"`

	// Admission-to-terminal session latency across the batch.
	P50 time.Duration `json:"p50"`
	P99 time.Duration `json:"p99"`

	Err string `json:"err,omitempty"`
}

// Passed reports whether every session decided with an oracle-identical
// Result.
func (r *ServeReport) Passed() bool {
	return r.Err == "" && r.Decided == r.Sessions && r.OracleMatches == r.Sessions
}

// RunServe soaks the serving layer: an in-process daemon cluster with the
// chaos plan injected under every mux link, Sessions concurrent sessions
// with rotated inputs submitted through the client API round-robin across
// daemons, and each Result asserted DeepEqual to its sequential oracle.
//
// Only delay faults are accepted — lat, stall, part — because they
// preserve per-link FIFO order, which is all the mux assumes. Drop clauses
// are rejected up front: a dead link fails every in-flight
// session on the surviving side by design (the mux redials, but sessions do
// not resume mid-round), so an in-band plan that destroys connections tests
// the wrong contract. Daemon death is a first-class scenario with its own
// harness — RunServeKillRestart — which asserts the journal's durability
// contract instead of delay-transparency.
func RunServe(spec ServeSpec) (*ServeReport, error) {
	rep := &ServeReport{Tree: spec.Tree, N: spec.N, T: spec.T, Seed: spec.Seed,
		Adversary: spec.Adversary, Sessions: spec.Sessions}
	sp, plan, err := honestCell(spec.Tree, spec.Adversary, spec.N, spec.T, spec.Seed)
	if err != nil {
		return nil, err
	}
	if len(plan.Drops) > 0 {
		return nil, fmt.Errorf("chaos: serve soak accepts delay faults only (lat/stall/part); plan %q drops connections", plan.Spec)
	}
	if spec.Sessions < 1 {
		return nil, fmt.Errorf("chaos: serve soak needs at least 1 session, got %d", spec.Sessions)
	}
	w, err := session.NewWorkload(sp, spec.Seed, spec.N, spec.T, spec.TTL, spec.Sessions, false)
	if err != nil {
		return nil, err
	}

	chaosStats := &metrics.ChaosStats{}
	serveStats := &metrics.ServeStats{}
	inj := NewInjector(plan, spec.Seed, chaosStats)
	cluster, err := session.StartCluster(spec.N, session.Options{
		MaxSessions:  spec.Sessions + spec.N,
		SetupTimeout: spec.SetupTimeout,
		RoundTimeout: spec.RoundTimeout,
		DefaultTTL:   spec.TTL,
		Stats:        serveStats,
		WrapConn:     inj.WrapConn,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	decided, failures := w.Drive(func(i int) string { return cluster.ClientAddr(i % spec.N) },
		spec.Sessions, spec.SetupTimeout)
	rep.Decided, rep.OracleMatches = decided, spec.Sessions-len(failures)
	if len(failures) > 0 {
		rep.Err = failures[0]
	}
	rep.Delays = chaosStats.Delays.Load()
	rep.Stalls = chaosStats.Stalls.Load()
	rep.Partitions = chaosStats.Partitions.Load()
	lat := serveStats.SessionLatency()
	rep.P50, rep.P99 = time.Duration(lat.P50), time.Duration(lat.P99)
	return rep, nil
}
