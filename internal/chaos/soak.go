package chaos

import (
	"fmt"
	"reflect"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

// RunSpec is one soak cell: a protocol configuration, an adversary whose
// link clauses are the cell's chaos plan, and a seed to materialize both.
type RunSpec struct {
	Tree      string // cli space spec: a tree ("path:40") or a "graph:"-prefixed block graph
	N, T      int
	Seed      int64
	Adversary string // cli adversary spec, link faults included; "none" = honest quiet run

	SetupTimeout time.Duration
	RoundTimeout time.Duration
}

// Report is one soak cell's outcome: what the protocol did, whether it
// stayed safe, and what the chaos layer injected and the transport repaired.
type Report struct {
	Tree      string `json:"tree"`
	N         int    `json:"n"`
	T         int    `json:"t"`
	Seed      int64  `json:"seed"`
	Adversary string `json:"adversary"`

	Rounds   int `json:"rounds"`
	Messages int `json:"messages"`
	Bytes    int `json:"bytes"`

	// Safety: validity (outputs in the honest input hull), 1-agreement
	// (pairwise output distance ≤ 1), and byte-identity with the sequential
	// sim.Run oracle.
	Valid       bool `json:"valid"`
	MaxDist     int  `json:"max_dist"`
	OracleMatch bool `json:"oracle_match"`

	// Injected faults and recovery work.
	Delays       int64 `json:"delays"`
	Stalls       int64 `json:"stalls"`
	Drops        int64 `json:"drops"`
	Partitions   int64 `json:"partitions"`
	Reconnects   int64 `json:"reconnects"`
	FramesResent int64 `json:"frames_resent"`
	BytesResent  int64 `json:"bytes_resent"`

	// Per-round wall-clock latency across parties.
	P50 time.Duration `json:"p50"`
	P99 time.Duration `json:"p99"`

	Err string `json:"err,omitempty"`
}

// Passed reports whether the cell upheld every safety assertion.
func (r *Report) Passed() bool {
	return r.Err == "" && r.Valid && r.MaxDist <= 1 && r.OracleMatch
}

// Run executes one soak cell: the sequential oracle first, then the real
// TCP cluster with the chaos plan injected, then the safety assertions. A
// configuration error (bad spec, bad plan) returns an error; a runtime
// failure of the chaotic run (e.g. a plan that blows the timeout budget)
// lands in Report.Err so sweeps keep going.
func Run(spec RunSpec) (*Report, error) {
	rep := &Report{Tree: spec.Tree, N: spec.N, T: spec.T, Seed: spec.Seed, Adversary: spec.Adversary}
	plan, err := NewPlan(spec.Adversary, spec.N)
	if err != nil {
		return nil, err
	}
	sp, err := cli.ParseSpaceSpec(spec.Tree, spec.Seed)
	if err != nil {
		return nil, err
	}
	inputs := sp.SpreadInputs(spec.N)
	_, corrupt, err := sp.BuildAdversary(spec.Adversary, spec.N, spec.T, spec.Seed)
	if err != nil {
		return nil, err
	}
	machines := func() ([]sim.Machine, error) {
		ms := make([]sim.Machine, spec.N)
		for i := range ms {
			m, _, err := sp.NewMachine(spec.N, spec.T, sim.PartyID(i), inputs[i])
			if err != nil {
				return nil, err
			}
			ms[i] = m
		}
		return ms, nil
	}
	cfg := func() (sim.Config, error) {
		adv, _, err := sp.BuildAdversary(spec.Adversary, spec.N, spec.T, spec.Seed)
		if err != nil {
			return sim.Config{}, err
		}
		return sim.Config{N: spec.N, MaxCorrupt: spec.T,
			MaxRounds: sp.Rounds() + 2, Adversary: adv}, nil
	}

	// The oracle: the same execution on the sequential engine, untouched by
	// chaos — the injected faults are delays and repaired losses, which a
	// correct transport must render invisible.
	oracleCfg, err := cfg()
	if err != nil {
		return nil, err
	}
	oracleMachines, err := machines()
	if err != nil {
		return nil, err
	}
	want, err := sim.Run(oracleCfg, oracleMachines)
	if err != nil {
		return nil, fmt.Errorf("chaos: oracle run: %w", err)
	}

	stats := &metrics.ChaosStats{}
	opts := NewInjector(plan, spec.Seed, stats).Apply(transport.Options{
		SetupTimeout: spec.SetupTimeout,
		RoundTimeout: spec.RoundTimeout,
	})
	chaosCfg, err := cfg()
	if err != nil {
		return nil, err
	}
	chaosMachines, err := machines()
	if err != nil {
		return nil, err
	}
	got, err := transport.LocalCluster(chaosCfg, chaosMachines, opts)

	rep.Delays = stats.Delays.Load()
	rep.Stalls = stats.Stalls.Load()
	rep.Drops = stats.Drops.Load()
	rep.Partitions = stats.Partitions.Load()
	rep.Reconnects = stats.Reconnects.Load()
	rep.FramesResent = stats.FramesResent.Load()
	rep.BytesResent = stats.BytesResent.Load()
	lat := stats.RoundLatency()
	rep.P50, rep.P99 = time.Duration(lat.P50), time.Duration(lat.P99)
	if err != nil {
		rep.Err = err.Error()
		return rep, nil
	}

	rep.Rounds, rep.Messages, rep.Bytes = got.Rounds, got.Messages, got.Bytes
	rep.OracleMatch = reflect.DeepEqual(got, want)
	outputs := make(map[sim.PartyID]tree.VertexID, len(got.Outputs))
	for p, out := range got.Outputs {
		v, ok := out.(tree.VertexID)
		if !ok {
			rep.Err = fmt.Sprintf("party %d output %T, want tree.VertexID", p, out)
			return rep, nil
		}
		outputs[p] = v
	}
	var validity []string
	rep.MaxDist, validity, _ = sp.Judge(inputs, corrupt, outputs)
	rep.Valid = len(validity) == 0
	return rep, nil
}
