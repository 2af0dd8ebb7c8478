package chaos

import (
	"fmt"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

// AsyncRunSpec is one asynchronous soak cell: a TreeAA configuration, link
// faults and a seed to materialize them with. Latency, stalls and
// partition holds are sleeps on the write path — an asynchronous protocol
// must tolerate any finite delay — and a dropped connection is repaired
// underneath the protocol by the transport's count-exchange resume, which
// knows nothing of rounds. Every seat runs the honest async pipeline —
// Byzantine behaviour against the async machines is exercised in-process by
// internal/check, where the scheduler is the adversary.
type AsyncRunSpec struct {
	Tree string // cli space spec: a tree ("path:16") or a "graph:"-prefixed block graph
	N, T int
	Seed int64
	// Adversary holds the cell's link clauses ("none" = no chaos); a clause
	// that corrupts a party is refused, since every seat is honest.
	Adversary string

	SetupTimeout time.Duration
	// IdleTimeout bounds the silence between consecutive arrivals at any
	// seat (it rides transport.Options.RoundTimeout). It is a liveness
	// watchdog for wedged runs, never a per-round barrier: chaos delays
	// postpone single frames, so any cell whose longest single hold stays
	// under it cannot trip the watchdog.
	IdleTimeout time.Duration
}

// AsyncReport is one async soak cell's outcome. There is no oracle column:
// the async protocol's decisions depend on delivery order, so the cell
// asserts the paper's properties — validity and 1-agreement of the decoded
// vertices — rather than byte-identity with a reference schedule.
type AsyncReport struct {
	Tree      string `json:"tree"`
	N         int    `json:"n"`
	T         int    `json:"t"`
	Seed      int64  `json:"seed"`
	Adversary string `json:"adversary"`

	Deliveries int `json:"deliveries"`
	Messages   int `json:"messages"`
	Bytes      int `json:"bytes"`

	// Safety: validity (outputs in the input hull) and 1-agreement
	// (pairwise output distance ≤ 1).
	Valid   bool `json:"valid"`
	MaxDist int  `json:"max_dist"`

	// Injected faults and the resume reconnects that repaired the drops.
	Delays     int64 `json:"delays"`
	Stalls     int64 `json:"stalls"`
	Drops      int64 `json:"drops"`
	Partitions int64 `json:"partitions"`
	Reconnects int64 `json:"reconnects"`

	Err string `json:"err,omitempty"`
}

// Passed reports whether the cell upheld every safety assertion.
func (r *AsyncReport) Passed() bool {
	return r.Err == "" && r.Valid && r.MaxDist <= 1
}

// RunAsync executes one async soak cell: build the plan, build one
// honest pipeline per party, run them over real loopback TCP with the
// injector on every link, then judge the decoded vertices. A configuration
// error returns an error; a runtime failure (e.g. a plan that outlasts the
// idle watchdog) lands in Report.Err so sweeps keep going.
func RunAsync(spec AsyncRunSpec) (*AsyncReport, error) {
	rep := &AsyncReport{Tree: spec.Tree, N: spec.N, T: spec.T, Seed: spec.Seed, Adversary: spec.Adversary}
	sp, plan, err := honestCell(spec.Tree, spec.Adversary, spec.N, spec.T, spec.Seed)
	if err != nil {
		return nil, err
	}
	inputs := sp.SpreadInputs(spec.N)

	machines := make([]driver.EventMachine, spec.N)
	for i := range machines {
		if machines[i], _, err = sp.NewAsyncMachine(spec.N, spec.T, sim.PartyID(i), inputs[i]); err != nil {
			return nil, err
		}
	}

	stats := &metrics.ChaosStats{}
	opts := NewInjector(plan, spec.Seed, stats).Apply(transport.Options{
		SetupTimeout: spec.SetupTimeout,
		RoundTimeout: spec.IdleTimeout,
	})
	got, err := transport.AsyncLocalCluster(spec.N, machines, opts)

	rep.Delays = stats.Delays.Load()
	rep.Stalls = stats.Stalls.Load()
	rep.Drops = stats.Drops.Load()
	rep.Partitions = stats.Partitions.Load()
	rep.Reconnects = stats.Reconnects.Load()
	if err != nil {
		rep.Err = err.Error()
		return rep, nil
	}
	rep.Deliveries, rep.Messages, rep.Bytes = got.Deliveries, got.Messages, got.Bytes

	outputs := make(map[sim.PartyID]tree.VertexID, len(got.Outputs))
	for p, out := range got.Outputs {
		v, ok := out.(tree.VertexID)
		if !ok {
			rep.Err = "party output is not a vertex"
			return rep, nil
		}
		outputs[p] = v
	}
	var validity []string
	rep.MaxDist, validity, _ = sp.Judge(inputs, nil, outputs)
	rep.Valid = len(validity) == 0
	return rep, nil
}

// honestCell parses a soak cell's space and builds the plan of its link
// clauses, refusing any clause that would corrupt a party: the async and
// serving soaks run honest seats only.
func honestCell(space, adversary string, n, t int, seed int64) (*cli.Space, *Plan, error) {
	sp, err := cli.ParseSpaceSpec(space, seed)
	if err != nil {
		return nil, nil, err
	}
	plan, err := NewPlan(adversary, n)
	if err != nil {
		return nil, nil, err
	}
	if _, corrupt, err := sp.BuildAdversary(adversary, n, t, seed); err != nil {
		return nil, nil, err
	} else if len(corrupt) > 0 {
		return nil, nil, fmt.Errorf("chaos: adversary %q corrupts parties; this soak runs honest seats under link faults only", adversary)
	}
	return sp, plan, nil
}
