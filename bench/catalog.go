package main

import (
	"encoding/json"
	"os"
	"time"
)

// runSeconds is how long one pass measures a workload by default; the
// acceptance driver passes the same figure as --seconds. The end-to-end
// figures are read off the quiet end of a run (see quiet), which needs the
// run to contain quiet moments: over ten runs they spread by 6–9 % at 10 s
// against 3–4 % at 20–30 s. The driver makes 4+22×2 runs of the two gated
// workloads — a pass takes about 5 s on top of what it measures — which at
// 30 s take 1,700 s of its 3,420 s budget: its second set of ten runs starts
// a quarter of an hour after the first, and the host drifts less in that than
// in the half hour longer runs would need.
const runSeconds = 30

// env is one workload, set up: the program under test started and ready.
type env interface {
	// prepare is the harness's own preparation: generating the spec stream
	// and computing the oracles. It is repeated with the set-up and counted
	// in setup_s — it runs the program's parsers and its sequential engine.
	prepare() error
	// phase runs operations for about dur and verifies every output. With
	// a tracer it records spans around the calls it makes.
	phase(dur time.Duration, tr *tracer) (*phaseResult, error)
	// layers measures the workload's layers from outside — isolated replays
	// of sampled operations, exported counters — into per-layer metrics.
	layers(tr *tracer, ph *phaseResult, m map[string]float64) error
	close()
}

// phaseResult is what one timed stretch of a workload produced.
type phaseResult struct {
	attempted int
	failed    int       // errored, refused, expired, or mismatched the oracle
	latency   []float64 // ms, one per completed operation
	meter     meter     // wall, CPU and mallocs over the program's work only
	ops       []opSpec  // the operations run, where layers replays a sample of them
	counts    map[string]float64
}

func (p *phaseResult) ok() int { return p.attempted - p.failed }

// workload is one row of the benchmark: a named set of inputs and a loop.
type workload struct {
	Name string
	Why  string
	Loop string // closed | open | fixed, with client count or rate
	Op   string // what one operation is
	// Ungated, when set, says why the workload is left out of
	// BENCHMARK.json: full runs and -compare still cover it, the acceptance
	// driver does not gate on it.
	Ungated string
	// setup starts the program for this workload: spaces built, clusters
	// ready, clients dialled.
	setup func(c *runCtx) (env, error)
}

var workloads = []workload{
	{"kernel-batch", "in-process sim.Run over four tree/graph cells: only tree, graph, core and sim work; wire, transport, session and journal idle",
		"closed, 1 goroutine", "one pass over the 4 cells", "", setupKernel},
	{"async-sim", "async.Run of n=16 pipelines on path:64 under a seeded random scheduler: the only workload where the async stack works; delivery counts repeat exactly",
		"closed, 1 goroutine", "one async.Run",
		"one operation takes a second, so a run holds ≈25 and every one of them spans several of the host's noisy spells: no statistic over them is quiet, and whole runs differed by 25 % (1.10 against 1.39 s, same seed)",
		setupAsync},
	{"mesh-fleet", "transport.LocalCluster TCP mesh, n=16 on path:1024: a kernel cell's protocol work behind real sockets, so framing, barriers and syscalls dominate",
		"closed, sequential runs", "one launch-to-all-decided run incl. mesh set-up",
		"steady within ten runs (2–12 %) but its level follows the host over tens of minutes: four sets of ten runs read 102, 95, 86 and 104 ms, and the acceptance driver rejects a second set 25 % worse than the first",
		setupMesh},
	{"overlay-fleet", "overlay.Cluster n=512, auto branching, crash-fault AA, 3 iterations: relays, watermarks and bitmap barriers dominate; the mesh node loop is bypassed",
		"closed, sequential runs", "one launch-to-all-decided run incl. tree set-up",
		"512 nodes' goroutines on two vCPUs measure the host's scheduler as much as the overlay, and a 1.1 s operation leaves no quiet sample: the acceptance driver saw its three metrics spread by 28–36 %",
		setupOverlay},
	{"serve-closed", "4-daemon session service, no journal, nproc clients submit-and-wait one hot spec back to back: mux, shards, engines, client API and wire dominate, kernel about 5%",
		"closed, nproc clients", "one session, submit to decided", "", setupServeClosed},
	{"serve-open", "same service at a fixed 200 sessions/s, latency from the due time, 60% hot / 25% cold random:64 / 15% graph: queueing and per-session spec rebuilds that the closed loop hides",
		"open, 200/s", "one session, due time to decided",
		"at 65% utilisation queueing doubles every drift in the host's speed: over ten seeds its median latency spread by 26% and 28% (IQR/median), past the widest bound the contract allows",
		setupServeOpen},
	{"serve-durable", "serve-closed with the write-ahead journal on (level full): journal append and fsync set the gap to serve-closed",
		"closed, nproc clients", "one journaled session, submit to decided",
		"fsync-bound on a shared virtual disk: within one run its throughput ranges from 75 to 190 sessions/s second by second, and over ten seeds it spread by 6% to 30% (IQR/median) in five sweeps",
		setupServeDurable},
	{"serve-recover", "kill -9 and restart each seat of a journaled service holding a fixed 400 decided sessions: journal replay and re-stepping, the journal used the other way round",
		"closed, sequential kill/restart cycles", "one kill-to-ready cycle, then every acked session re-checked",
		"replay reads the journal back from a shared virtual disk: the acceptance driver saw its three metrics spread by 26–44 %",
		setupServeRecover},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported number. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before -compare
// calls it a regression; per-layer metrics have none. Exact marks counts that
// must repeat bit for bit at the same seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string // per-layer only: the package measured
	Moves  string // per-layer only: the end-to-end metric it should move, and where
	Exact  bool
}

// Every end-to-end metric is defined on every workload in terms of that
// workload's operation (see workload.Op). Failures are not a metric: every
// run reports attempted and failed, and any failure fails the run.
//
// All four are read off the quiet end of a run's distribution — the 2nd
// percentile of the repeated set-ups and of operation latency, the 98th and
// 2nd of the rate and the CPU per operation of the run's 100 ms slices — because
// on a small share of a busy host the mean and the median follow the
// neighbours (see quiet in run.go). The bounds are the widest the contract
// allows: even the quiet end drifts by 5–10 % over minutes on the 2-vCPU VM
// this was written on; README.md has the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s_p98", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p2_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op_p2", Unit: "ms", Better: "lower", Bound: 0.25},
}

const (
	onKernel  = "ops_per_s_p98, cpu_ms_per_op_p2 on kernel-batch"
	onServe   = "cpu_ms_per_op_p2, ops_per_s_p98 on serve-closed; latency_p2_ms on mesh-fleet"
	onMesh    = "latency_p2_ms, cpu_ms_per_op_p2 on mesh-fleet; nothing on overlay-fleet"
	onOverlay = "latency_p2_ms, cpu_ms_per_op_p2 on overlay-fleet; nothing on mesh-fleet"
	onDurable = "ops_per_s_p98, latency_p2_ms, cpu_ms_per_op_p2 on serve-durable; nothing on serve-closed"
	onRecover = "latency_p2_ms on serve-recover"
	onOpen    = "diagnostic for serve-open"
)

var perLayer = []metricDef{
	{Name: "cli.parse_us_per_session", Unit: "us", Better: "lower", Layer: "cli", Moves: "latency_p2_ms on serve-open (cold 25%); nothing on serve-closed"},
	{Name: "core.machines_us_per_op", Unit: "us", Better: "lower", Layer: "core", Moves: onKernel},
	{Name: "core.step_us_per_op", Unit: "us", Better: "lower", Layer: "core", Moves: onKernel + "; ≤7% of cpu_ms_per_op_p2 on serve-closed"},
	{Name: "core.rounds", Unit: "count", Better: "lower", Layer: "core", Moves: onKernel, Exact: true},
	{Name: "core.msgs_per_op", Unit: "count", Better: "lower", Layer: "core", Moves: onKernel, Exact: true},
	{Name: "core.bytes_per_op", Unit: "B", Better: "lower", Layer: "core", Moves: onKernel, Exact: true},
	{Name: "sim.allocs_per_run", Unit: "count", Better: "lower", Layer: "sim", Moves: onKernel},
	{Name: "sim.round_us_p50", Unit: "us", Better: "lower", Layer: "sim", Moves: onKernel},
	{Name: "graph.decode_share", Unit: "ratio", Better: "lower", Layer: "graph", Moves: "ops_per_s_p98 on kernel-batch only"},
	{Name: "async.deliveries_per_run", Unit: "count", Better: "lower", Layer: "async", Moves: "ops_per_s_p98, cpu_ms_per_op_p2 on async-sim; nowhere else", Exact: true},
	{Name: "async.depth", Unit: "count", Better: "lower", Layer: "async", Moves: "as async.deliveries_per_run", Exact: true},
	{Name: "async.us_per_delivery", Unit: "us", Better: "lower", Layer: "async", Moves: "as async.deliveries_per_run"},
	{Name: "wire.encode_us_per_session", Unit: "us", Better: "lower", Layer: "wire", Moves: onServe},
	{Name: "wire.decode_us_per_session", Unit: "us", Better: "lower", Layer: "wire", Moves: onServe},
	{Name: "wire.frames_per_session", Unit: "count", Better: "lower", Layer: "wire", Moves: onServe, Exact: true},
	{Name: "wire.bytes_per_session", Unit: "B", Better: "lower", Layer: "wire", Moves: onServe, Exact: true},
	{Name: "transport.frame_us_per_session", Unit: "us", Better: "lower", Layer: "transport", Moves: onServe},
	{Name: "transport.frames_per_round", Unit: "count", Better: "lower", Layer: "transport", Moves: onMesh},
	{Name: "transport.bytes_per_run", Unit: "B", Better: "lower", Layer: "transport", Moves: onMesh},
	{Name: "transport.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "transport", Moves: onMesh},
	{Name: "transport.round_ms_p50", Unit: "ms", Better: "lower", Layer: "transport", Moves: onMesh},
	{Name: "overlay.frames_per_round", Unit: "count", Better: "lower", Layer: "overlay", Moves: onOverlay},
	{Name: "overlay.relayed_per_round", Unit: "count", Better: "lower", Layer: "overlay", Moves: onOverlay},
	{Name: "overlay.delivered_ratio", Unit: "ratio", Better: "higher", Layer: "overlay", Moves: onOverlay},
	{Name: "overlay.eor_frames_per_round", Unit: "count", Better: "lower", Layer: "overlay", Moves: onOverlay},
	{Name: "overlay.writes_per_round", Unit: "count", Better: "lower", Layer: "overlay", Moves: onOverlay},
	{Name: "overlay.peak_conns", Unit: "count", Better: "lower", Layer: "overlay", Moves: onOverlay},
	{Name: "overlay.round_ms_p50", Unit: "ms", Better: "lower", Layer: "overlay", Moves: onOverlay},
	{Name: "session.frames_per_session", Unit: "count", Better: "lower", Layer: "session", Moves: "cpu_ms_per_op_p2, ops_per_s_p98 on serve-closed"},
	{Name: "session.frames_per_batch", Unit: "count", Better: "higher", Layer: "session", Moves: "ops_per_s_p98 up on serve-closed, latency_p2_ms possibly up on serve-open (a batch delays its first frame)"},
	{Name: "session.bytes_per_session", Unit: "B", Better: "lower", Layer: "session", Moves: "cpu_ms_per_op_p2 on serve-closed"},
	{Name: "session.allocs_per_session", Unit: "count", Better: "lower", Layer: "session", Moves: "cpu_ms_per_op_p2, ops_per_s_p98 on serve-closed"},
	{Name: "session.manager_us_p50", Unit: "us", Better: "lower", Layer: "session", Moves: "latency_p2_ms on serve-closed"},
	{Name: "session.client_api_us", Unit: "us", Better: "lower", Layer: "session", Moves: "latency_p2_ms on serve-closed, one for one"},
	{Name: "session.residual_cpu_us_per_session", Unit: "us", Better: "lower", Layer: "session", Moves: "cpu_ms_per_op_p2 on the serve workloads: the mux/shard/engine/syscall share no exported function isolates"},
	{Name: "session.residual_share", Unit: "ratio", Better: "lower", Layer: "session", Moves: "residual as a share of the traced stretch's CPU per session"},
	{Name: "journal.appends_per_session", Unit: "count", Better: "lower", Layer: "journal", Moves: onDurable, Exact: true},
	{Name: "journal.bytes_per_session", Unit: "B", Better: "lower", Layer: "journal", Moves: onDurable},
	{Name: "journal.syncs_per_session", Unit: "count", Better: "lower", Layer: "journal", Moves: onDurable},
	{Name: "journal.depth_end", Unit: "count", Better: "lower", Layer: "journal", Moves: onDurable},
	{Name: "journal.append_us_per_session", Unit: "us", Better: "lower", Layer: "journal", Moves: onDurable},
	{Name: "journal.commit_ms_p50", Unit: "ms", Better: "lower", Layer: "journal", Moves: onDurable},
	{Name: "journal.replay_us_per_record", Unit: "us", Better: "lower", Layer: "journal", Moves: onRecover},
	{Name: "journal.replayed_per_recovery", Unit: "count", Better: "lower", Layer: "journal", Moves: onRecover},
	{Name: "journal.retained_bytes", Unit: "B", Better: "lower", Layer: "journal", Moves: onRecover},
	{Name: "client.latency_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "diagnostic: the median follows the host's neighbours; latency_p2_ms is the bounded figure"},
	{Name: "client.latency_p90_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "diagnostic: tails do not repeat on a 2-core host"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "diagnostic: tails do not repeat on a 2-core host"},
	{Name: "client.slo_ok_ratio", Unit: "ratio", Better: "higher", Layer: "client", Moves: "share of attempted serve-open sessions decided within 20 ms of their due time; failures count as misses"},
	{Name: "client.generator_late_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: onOpen + ": a late generator invalidates the run"},
	{Name: "client.backlog_end", Unit: "count", Better: "lower", Layer: "client", Moves: onOpen + ": sessions still undecided when the schedule ends"},
	{Name: "client.hol_skew_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: onOpen + ": completion observed in submit order minus ack time + service latency"},
	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher", Layer: "bench", Moves: "operations ÷ wall time over the whole traced stretch"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "1 − traced ÷ untraced throughput, two stretches measured back to back in the traced pass"},
}

// benchmarkFile is BENCHMARK.json: exactly the keys the acceptance driver
// reads. Loop types, layers and interactions live in README.md.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

// writeBenchmarkFile generates BENCHMARK.json from the tables above, so the
// file and the program cannot disagree.
func writeBenchmarkFile(path string) error {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Ungated == "" {
			f.Workloads = append(f.Workloads, map[string]any{"name": w.Name, "why": w.Why})
		}
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, map[string]any{
			"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, map[string]any{
			"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	body, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
