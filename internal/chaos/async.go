package chaos

import (
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

// AsyncClauses is the fault surface of the event-driven driver. Latency,
// stalls and partition holds are sleeps on the write path — an asynchronous
// protocol must tolerate any finite delay, so these are exactly the faults
// worth soaking it under. A dropped connection is repaired underneath the
// protocol by the transport's seq/ack resume, which knows nothing of rounds.
// Only crashes are excluded: crash-restart recovery re-steps a fresh machine
// through its peers' replayed round history, and an event-driven seat has no
// rounds to replay.
var AsyncClauses = []ClauseKind{ClauseLatency, ClauseStall, ClauseDrop, ClausePartition}

const asyncRestrictReason = "crash recovery re-steps a restarted seat through replayed lock-step " +
	"rounds, which the event-driven driver does not have — crash clauses require -mode sync"

// RestrictAsync gates a plan for -mode async, naming the offending clause
// family when the plan reaches outside AsyncClauses.
func RestrictAsync(plan *Plan) error {
	return plan.Restrict("-mode async", asyncRestrictReason, AsyncClauses...)
}

// AsyncRunSpec is one asynchronous soak cell: a TreeAA configuration, a
// crash-free chaos plan and a seed to materialize it with. Every seat runs
// the honest async pipeline — Byzantine behaviour against the async
// machines is exercised in-process by internal/check, where the scheduler
// is the adversary.
type AsyncRunSpec struct {
	Tree string // cli space spec: a tree ("path:16") or a "graph:"-prefixed block graph
	N, T int
	Seed int64
	Plan string // chaos spec (Parse, then RestrictAsync), "" = no chaos

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
	Tree string `json:"tree"`
	N    int    `json:"n"`
	T    int    `json:"t"`
	Seed int64  `json:"seed"`
	Plan string `json:"plan"`

	Deliveries int `json:"deliveries"`
	Messages   int `json:"messages"`
	Bytes      int `json:"bytes"`

	// Safety: validity (outputs in the input hull) and 1-agreement
	// (pairwise output distance ≤ 1).
	Valid   bool `json:"valid"`
	MaxDist int  `json:"max_dist"`

	// Injected faults and the resume reconnects that repaired the drops.
	// Crashes cannot appear: RestrictAsync refuses the plan before anything
	// runs.
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

// RunAsync executes one async soak cell: parse and gate the plan, build one
// honest pipeline per party, run them over real loopback TCP with the
// injector on every link, then judge the decoded vertices. A configuration
// error returns an error; a runtime failure (e.g. a plan that outlasts the
// idle watchdog) lands in Report.Err so sweeps keep going.
func RunAsync(spec AsyncRunSpec) (*AsyncReport, error) {
	rep := &AsyncReport{Tree: spec.Tree, N: spec.N, T: spec.T, Seed: spec.Seed, Plan: spec.Plan}
	plan, err := Parse(spec.Plan)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(spec.N); err != nil {
		return nil, err
	}
	if err := RestrictAsync(plan); err != nil {
		return nil, err
	}
	sp, err := cli.ParseSpaceSpec(spec.Tree, spec.Seed)
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
	// Apply is safe here: RestrictAsync already refused every plan for which
	// it would arm a crash plan, which the async cluster's own option check
	// rejects.
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
