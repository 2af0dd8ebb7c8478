package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"treeaa/internal/async"
	"treeaa/internal/cli"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// syncRun is one execution of an opSpec through the program's exported
// entry points, with a span around each layer it calls into.
type syncRun struct {
	space     *cli.Space
	inputs    []tree.VertexID
	corrupted map[sim.PartyID]bool
	cfg       sim.Config
	machines  []sim.Machine
	res       *sim.Result
	runTime   time.Duration
	mallocs   uint64 // across sim.Run alone; only when countAllocs
}

// buildSync parses the operation's inputs (and its space, unless the caller
// holds a parsed one) and builds the n machines. parses is how many times
// the parse happens per operation: once in process, once per daemon when a
// service runs the operation.
func buildSync(tr *tracer, parent, req int, op opSpec, space *cli.Space, parses int) (*syncRun, error) {
	run := &syncRun{space: space}
	var err error
	tr.in(parent, req, "cli.parse", func() {
		for k := 0; k < parses && err == nil; k++ {
			if space == nil {
				if run.space, err = cli.ParseSpaceSpec(op.Space, op.Seed); err != nil {
					return
				}
			}
			run.inputs, err = run.space.ParseInputs(op.Inputs, op.N)
		}
	})
	if err != nil {
		return nil, err
	}
	run.machines = make([]sim.Machine, op.N)
	run.cfg = sim.Config{N: op.N, MaxCorrupt: op.T, MaxRounds: run.space.Rounds() + 2}
	tr.in(parent, req, "core.machines", func() {
		for i := range run.machines {
			if run.machines[i], _, err = run.space.NewMachine(op.N, op.T, sim.PartyID(i), run.inputs[i]); err != nil {
				return
			}
		}
		if op.Adversary != "" {
			run.cfg.Adversary, run.corrupted, err = run.space.BuildAdversary(op.Adversary, op.N, op.T, op.Seed)
		}
	})
	return run, err
}

// runSync builds the operation's machines and runs them in process with
// sim.Run. wrap, when set, lets the caller observe the machines (see
// recorder); it is applied outside the core.machines span.
func runSync(tr *tracer, parent, req int, op opSpec, space *cli.Space, parses int, countAllocs bool,
	wrap func([]sim.Machine) []sim.Machine) (*syncRun, error) {
	run, err := buildSync(tr, parent, req, op, space, parses)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		run.machines = wrap(run.machines)
	}
	var before, after runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&before)
	}
	tr.in(parent, req, "sim.run", func() {
		t0 := time.Now()
		run.res, err = sim.Run(run.cfg, run.machines)
		run.runTime = time.Since(t0)
	})
	run.machines, run.cfg = nil, sim.Config{} // runs are kept for verification; their machines are not
	if countAllocs {
		runtime.ReadMemStats(&after)
		run.mallocs = after.Mallocs - before.Mallocs
	}
	return run, err
}

// verifyAA checks the paper's two properties on a finished execution:
// every honest output lies in the hull of the honest inputs, and every pair
// of honest outputs meets the space's agreement guarantee (distance ≤ 1; a
// common block on graphs with cycle blocks).
func verifyAA(space *cli.Space, inputs []tree.VertexID, corrupted map[sim.PartyID]bool, outputs map[sim.PartyID]any) error {
	var honestIn, outs []tree.VertexID
	for p, in := range inputs {
		if corrupted[sim.PartyID(p)] {
			continue
		}
		honestIn = append(honestIn, in)
		v, ok := outputs[sim.PartyID(p)].(tree.VertexID)
		if !ok {
			return fmt.Errorf("party %d: no vertex output (%v)", p, outputs[sim.PartyID(p)])
		}
		outs = append(outs, v)
	}
	for i, v := range outs {
		if !space.InHull(honestIn, v) {
			return fmt.Errorf("output %s outside the honest inputs' hull", space.Label(v))
		}
		for _, u := range outs[:i] {
			if !space.AgreementOK(u, v) {
				return fmt.Errorf("outputs %s and %s violate 1-agreement", space.Label(u), space.Label(v))
			}
		}
	}
	return nil
}

// ---- kernel-batch ----

var kernelCells = []mixEntry{
	{Weight: 1, Space: "path:1024", N: 16, T: 5, Adversary: "splitvote"},
	{Weight: 1, Space: "random:4096", N: 16, T: 5},
	{Weight: 1, Space: "path:2048", N: 32, T: 10, Adversary: "splitvote"},
	{Weight: 1, Space: "graph:cliquechain:8:6", N: 16, T: 5},
}

// kernelPool is how many input rotations per cell the passes cycle through.
const kernelPool = 64

type kernelEnv struct {
	c      *runCtx
	spaces []*cli.Space
	pool   [][]opSpec // per cell
	next   rotation
}

func setupKernel(c *runCtx) (env, error) {
	e := &kernelEnv{c: c}
	for _, cell := range kernelCells {
		sp, err := cli.ParseSpaceSpec(cell.Space, hotSeed)
		if err != nil {
			return nil, err
		}
		e.spaces = append(e.spaces, sp)
	}
	return e, nil
}

func (e *kernelEnv) prepare() error {
	for i, cell := range kernelCells {
		ops, err := specStream(e.c.seed+int64(i), []mixEntry{cell}, kernelPool)
		if err != nil {
			return err
		}
		e.pool = append(e.pool, ops)
	}
	return nil
}

func (e *kernelEnv) close() {}

func (e *kernelEnv) phase(dur time.Duration, tr *tracer) (*phaseResult, error) {
	ph := &phaseResult{counts: map[string]float64{}}
	var passes [][]*syncRun
	for start, first := time.Now(), e.next.begin(tr); ph.attempted == 0 || time.Since(start) < dur; {
		req := ph.attempted
		rot := (first + req) % kernelPool
		runs := make([]*syncRun, len(kernelCells))
		var failed bool
		ph.meter.resume()
		t0 := time.Now()
		root := tr.start(0, req, "op")
		for i := range kernelCells {
			op := e.pool[i][rot]
			run, err := runSync(tr, root, req, op, e.spaces[i], 1, false, nil)
			if err != nil {
				logf("kernel-batch: pass %d %s: %v\n", req, op.Space, err)
				failed = true
				continue
			}
			runs[i] = run
		}
		tr.end(root)
		lat := time.Since(t0)
		ph.meter.pause()
		ph.attempted++
		if failed {
			ph.failed++
			continue
		}
		ph.latency = append(ph.latency, ms(lat))
		passes = append(passes, runs)
	}
	for p, runs := range passes {
		for i, run := range runs {
			if err := verifyAA(run.space, run.inputs, run.corrupted, run.res.Outputs); err != nil {
				logf("kernel-batch: pass %d %s: %v\n", p, kernelCells[i].Space, err)
				ph.failed++
				break
			}
		}
	}
	e.next.advance(ph.attempted)
	if len(passes) > 0 { // a traced phase's first pass: exact at a given seed
		for _, run := range passes[0] {
			ph.counts["rounds"] += float64(run.res.Rounds)
			ph.counts["msgs"] += float64(run.res.Messages)
			ph.counts["bytes"] += float64(run.res.Bytes)
		}
	}
	return ph, nil
}

func (e *kernelEnv) layers(tr *tracer, ph *phaseResult, m map[string]float64) error {
	self := tr.layerMedians() // per pass: the four cells' spans summed
	m["cli.parse_us_per_session"] = self["cli.parse"] / 1e3
	m["core.machines_us_per_op"] = self["core.machines"] / 1e3
	m["core.step_us_per_op"] = self["sim.run"] / 1e3
	m["core.rounds"] = ph.counts["rounds"]
	m["core.msgs_per_op"] = ph.counts["msgs"]
	m["core.bytes_per_op"] = ph.counts["bytes"]

	// Per-run figures from isolated runs of each cell, outside the timed
	// phase: allocations across sim.Run alone, and time per round.
	const reps = 5
	var allocs, perRound, graphT, bctT []float64
	for i, cell := range kernelCells {
		for r := 0; r < reps; r++ {
			op := e.pool[i][r]
			run, err := runSync(nil, 0, 0, op, e.spaces[i], 1, true, nil)
			if err != nil {
				return err
			}
			allocs = append(allocs, float64(run.mallocs))
			perRound = append(perRound, us(run.runTime)/float64(run.res.Rounds))
			if !e.spaces[i].IsGraph() {
				continue
			}
			// The same cell on its block-cut tree alone: drive the graph
			// machines' inner TreeAA instances and skip the decode.
			cores := make([]sim.Machine, cell.N)
			for p := range cores {
				_, core, err := e.spaces[i].NewMachine(cell.N, cell.T, sim.PartyID(p), run.inputs[p])
				if err != nil {
					return err
				}
				cores[p] = core
			}
			t0 := time.Now()
			if _, err := sim.Run(sim.Config{N: cell.N, MaxCorrupt: cell.T, MaxRounds: e.spaces[i].Rounds() + 2}, cores); err != nil {
				return err
			}
			bctT = append(bctT, us(time.Since(t0)))
			graphT = append(graphT, us(run.runTime))
		}
	}
	m["sim.allocs_per_run"] = median(allocs)
	m["sim.round_us_p50"] = median(perRound)
	m["graph.decode_share"] = ratio(median(graphT), median(bctT))
	return nil
}

// ---- async-sim ----

const (
	asyncSpace = "path:64"
	asyncN     = 16
	asyncT     = 5
)

type asyncEnv struct {
	c     *runCtx
	space *cli.Space
	pool  []opSpec
	next  rotation
}

func setupAsync(c *runCtx) (env, error) {
	sp, err := cli.ParseSpaceSpec(asyncSpace, hotSeed)
	if err != nil {
		return nil, err
	}
	return &asyncEnv{c: c, space: sp}, nil
}

func (e *asyncEnv) prepare() (err error) {
	e.pool, err = specStream(e.c.seed, []mixEntry{{Weight: 1, Space: asyncSpace, N: asyncN, T: asyncT}}, kernelPool)
	return err
}

func (e *asyncEnv) close() {}

type asyncRun struct {
	inputs  []tree.VertexID
	res     *async.Result
	runTime time.Duration
}

func (e *asyncEnv) phase(dur time.Duration, tr *tracer) (*phaseResult, error) {
	ph := &phaseResult{counts: map[string]float64{}}
	var runs []asyncRun
	for start, first := time.Now(), e.next.begin(tr); ph.attempted == 0 || time.Since(start) < dur; {
		req, rep := ph.attempted, first+ph.attempted
		op := e.pool[rep%len(e.pool)]
		var (
			run asyncRun
			err error
		)
		ph.meter.resume()
		t0 := time.Now()
		root := tr.start(0, req, "op")
		tr.in(root, req, "cli.parse", func() { run.inputs, err = e.space.ParseInputs(op.Inputs, op.N) })
		machines := make([]async.Machine, op.N)
		budget := 0
		if err == nil {
			tr.in(root, req, "core.machines", func() {
				for i := range machines {
					var p *async.Pipeline
					if p, err = async.NewPipeline(e.space.Tree, op.N, op.T, async.PartyID(i), run.inputs[i]); err != nil {
						return
					}
					machines[i], budget = p, p.DeliveryBudget()
				}
			})
		}
		if err == nil {
			// The scheduler is seeded from (seed, rep) and a traced phase
			// starts at rep 0, so a given seed replays the same delivery
			// orders and the first traced run's counts repeat exactly.
			sched := async.Random{Rng: rand.New(rand.NewSource(e.c.seed*1_000_003 + int64(rep)))}
			tr.in(root, req, "async.run", func() {
				r0 := time.Now()
				run.res, err = async.Run(async.Config{N: op.N, Scheduler: sched, MaxDeliveries: budget}, machines)
				run.runTime = time.Since(r0)
			})
		}
		tr.end(root)
		lat := time.Since(t0)
		ph.meter.pause()
		ph.attempted++
		if err != nil {
			logf("async-sim: run %d: %v\n", req, err)
			ph.failed++
			continue
		}
		ph.latency = append(ph.latency, ms(lat))
		runs = append(runs, run)
	}
	e.next.advance(ph.attempted)
	var perDelivery []float64
	for i, run := range runs {
		outs := make(map[sim.PartyID]any, len(run.res.Outputs))
		for p, v := range run.res.Outputs {
			outs[sim.PartyID(p)] = v
		}
		if err := verifyAA(e.space, run.inputs, nil, outs); err != nil {
			logf("async-sim: run %d: %v\n", i, err)
			ph.failed++
		}
		perDelivery = append(perDelivery, us(run.runTime)/float64(run.res.Deliveries))
	}
	if len(runs) > 0 {
		ph.counts["deliveries"] = float64(runs[0].res.Deliveries)
		ph.counts["depth"] = float64(runs[0].res.Depth)
		ph.counts["us_per_delivery"] = median(perDelivery)
	}
	return ph, nil
}

func (e *asyncEnv) layers(tr *tracer, ph *phaseResult, m map[string]float64) error {
	self := tr.layerMedians()
	m["cli.parse_us_per_session"] = self["cli.parse"] / 1e3
	m["core.machines_us_per_op"] = self["core.machines"] / 1e3
	m["async.deliveries_per_run"] = ph.counts["deliveries"]
	m["async.depth"] = ph.counts["depth"]
	m["async.us_per_delivery"] = ph.counts["us_per_delivery"]
	return nil
}
