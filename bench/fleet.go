package main

import (
	"math/rand"
	"reflect"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/crashaa"
	"treeaa/internal/metrics"
	"treeaa/internal/overlay"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// fleetPool is how many input rotations (each with its own oracle) the
// sequential fleet runs cycle through.
const fleetPool = 8

// fleetPhase is the loop both fleets share: run launch→all-decided
// operations back to back for dur, then compare every Result with its
// sim.Run oracle. launch does the program's work for run req, on input
// rotation rot, under the given root span; oracle returns the reference for
// that rotation.
func fleetPhase(name string, dur time.Duration, tr *tracer, next *rotation,
	launch func(root, req, rot int) (*sim.Result, error), oracle func(rot int) *sim.Result) *phaseResult {
	ph := &phaseResult{counts: map[string]float64{}}
	var got []*sim.Result
	first := next.begin(tr)
	for start := time.Now(); ph.attempted == 0 || time.Since(start) < dur; {
		req := ph.attempted
		ph.meter.resume()
		t0 := time.Now()
		root := tr.start(0, req, "op")
		res, err := launch(root, req, first+req)
		tr.end(root)
		lat := time.Since(t0)
		ph.meter.pause()
		ph.attempted++
		got = append(got, res)
		if err != nil {
			logf("%s: run %d: %v", name, req, err)
			ph.failed++
			continue
		}
		ph.latency = append(ph.latency, ms(lat))
	}
	next.advance(ph.attempted)
	for req, res := range got {
		if res != nil && !reflect.DeepEqual(res, oracle(first+req)) {
			logf("%s: run %d: result diverges from the sim.Run oracle", name, req)
			ph.failed++
		}
	}
	return ph
}

// ---- mesh-fleet ----

var meshCell = mixEntry{Weight: 1, Space: "path:1024", N: 16, T: 5}

type meshEnv struct {
	c       *runCtx
	space   *cli.Space
	pool    []opSpec
	oracles []*sim.Result
	next    rotation
}

func setupMesh(c *runCtx) (env, error) {
	sp, err := cli.ParseSpaceSpec(meshCell.Space, hotSeed)
	if err != nil {
		return nil, err
	}
	return &meshEnv{c: c, space: sp}, nil
}

func (e *meshEnv) prepare() (err error) {
	if e.pool, err = specStream(e.c.seed, []mixEntry{meshCell}, fleetPool); err != nil {
		return err
	}
	for _, op := range e.pool {
		run, err := runSync(nil, 0, 0, op, e.space, 1, false, nil)
		if err != nil {
			return err
		}
		e.oracles = append(e.oracles, run.res)
	}
	return nil
}

func (e *meshEnv) close() {}

func (e *meshEnv) phase(dur time.Duration, tr *tracer) (*phaseResult, error) {
	wires, rounds := &metrics.WireStats{}, &metrics.ChaosStats{}
	var ops []opSpec
	ph := fleetPhase("mesh-fleet", dur, tr, &e.next, func(root, req, rot int) (res *sim.Result, err error) {
		op := e.pool[rot%fleetPool]
		ops = append(ops, op)
		run, err := buildSync(tr, root, req, op, e.space, 1)
		if err != nil {
			return nil, err
		}
		tr.in(root, req, "transport.cluster", func() {
			res, err = transport.LocalCluster(run.cfg, run.machines, transport.Options{Stats: wires, Chaos: rounds})
		})
		return res, err
	}, func(rot int) *sim.Result { return e.oracles[rot%fleetPool] })
	ph.ops = ops
	runs, want := float64(ph.attempted), e.oracles[0]
	ph.counts["frames_per_round"] = ratio(float64(wires.FramesSent.Load()), runs*float64(want.Rounds))
	ph.counts["bytes_per_run"] = ratio(float64(wires.BytesSent.Load()), runs)
	ph.counts["overhead_ratio"] = ratio(float64(wires.BytesSent.Load()), runs*float64(want.Bytes))
	ph.counts["round_ms_p50"] = rounds.RoundLatency().P50 / 1e6
	return ph, nil
}

func (e *meshEnv) layers(tr *tracer, ph *phaseResult, m map[string]float64) error {
	// The codec and framing share of a run, replayed in isolation on a few
	// of the runs' own inputs.
	rtr := tr.fork()
	var frames, bytes []float64
	for i, op := range sampleOps(ph.ops, 3) {
		rp, err := replayWarm(rtr, i, op, replayOpts{space: e.space, parses: 1})
		if err != nil {
			return err
		}
		frames, bytes = append(frames, float64(rp.frames)), append(bytes, float64(rp.wireBytes))
		if i == 0 {
			m["core.rounds"] = float64(rp.run.res.Rounds)
			m["core.msgs_per_op"] = float64(rp.run.res.Messages)
			m["core.bytes_per_op"] = float64(rp.run.res.Bytes)
		}
	}
	self, replay := tr.layerMedians(), rtr.layerMedians()
	tr.adopt(rtr)
	m["cli.parse_us_per_session"] = self["cli.parse"] / 1e3
	m["core.machines_us_per_op"] = self["core.machines"] / 1e3
	m["core.step_us_per_op"] = replay["sim.run"] / 1e3
	m["wire.encode_us_per_session"] = replay["wire.encode"] / 1e3
	m["wire.decode_us_per_session"] = replay["wire.decode"] / 1e3
	m["wire.frames_per_session"] = median(frames)
	m["wire.bytes_per_session"] = median(bytes)
	m["transport.frame_us_per_session"] = replay["transport.frame"] / 1e3
	m["transport.frames_per_round"] = ph.counts["frames_per_round"]
	m["transport.bytes_per_run"] = ph.counts["bytes_per_run"]
	m["transport.overhead_ratio"] = ph.counts["overhead_ratio"]
	m["transport.round_ms_p50"] = ph.counts["round_ms_p50"]
	return nil
}

// ---- overlay-fleet ----

const (
	overlayN     = 512
	overlayIters = 3
	// overlayPool is the number of input rotations; each needs an n=512
	// oracle run (≈0.1 s), so fewer than the mesh's.
	overlayPool = 3
)

type overlayEnv struct {
	c       *runCtx
	layout  overlay.Layout
	shifts  []int // input rotation per pool entry
	oracles []*sim.Result
	next    rotation
}

func setupOverlay(c *runCtx) (env, error) {
	lay, err := overlay.NewLayout(overlayN, 0)
	if err != nil {
		return nil, err
	}
	return &overlayEnv{c: c, layout: lay}, nil
}

func (e *overlayEnv) machines(shift int) ([]sim.Machine, error) {
	ms := make([]sim.Machine, overlayN)
	for i := range ms {
		m, err := crashaa.NewMachine(crashaa.Config{N: overlayN, ID: sim.PartyID(i),
			Iterations: overlayIters, Input: float64((i + shift) % 17)})
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

func (e *overlayEnv) cfg() sim.Config {
	return sim.Config{N: overlayN, MaxCorrupt: 1, MaxRounds: overlayIters + 2}
}

func (e *overlayEnv) prepare() error {
	rng := rand.New(rand.NewSource(e.c.seed))
	for i := 0; i < overlayPool; i++ {
		shift := rng.Intn(17)
		ms, err := e.machines(shift)
		if err != nil {
			return err
		}
		want, err := sim.Run(e.cfg(), ms)
		if err != nil {
			return err
		}
		e.shifts, e.oracles = append(e.shifts, shift), append(e.oracles, want)
	}
	return nil
}

func (e *overlayEnv) close() {}

func (e *overlayEnv) phase(dur time.Duration, tr *tracer) (*phaseResult, error) {
	wires, stats := &metrics.WireStats{}, &metrics.OverlayStats{}
	ph := fleetPhase("overlay-fleet", dur, tr, &e.next, func(root, req, rot int) (res *sim.Result, err error) {
		var ms []sim.Machine
		tr.in(root, req, "core.machines", func() { ms, err = e.machines(e.shifts[rot%overlayPool]) })
		if err != nil {
			return nil, err
		}
		tr.in(root, req, "overlay.cluster", func() {
			res, err = overlay.Cluster(e.cfg(), ms, overlay.Options{
				Branching: e.layout.Branching, Stats: stats, Wire: wires,
				// 512 goroutine seats on two cores take seconds to drain
				// the join herd; the defaults are sized for real fleets.
				FailoverTimeout: 30 * time.Second, SetupTimeout: 2 * time.Minute})
		})
		return res, err
	}, func(rot int) *sim.Result { return e.oracles[rot%overlayPool] })
	rounds := float64(ph.attempted) * float64(e.oracles[0].Rounds)
	ph.counts["frames_per_round"] = ratio(float64(wires.FramesSent.Load()), rounds)
	ph.counts["relayed_per_round"] = ratio(float64(stats.Relayed.Load()), rounds)
	ph.counts["delivered_ratio"] = ratio(float64(stats.Delivered.Load()),
		float64(stats.Delivered.Load()+stats.DedupDropped.Load()))
	ph.counts["eor_frames_per_round"] = ratio(float64(stats.EORUp.Load()+stats.EORDown.Load()), rounds)
	ph.counts["writes_per_round"] = ratio(float64(stats.Batches.Load()), rounds)
	ph.counts["peak_conns"] = float64(stats.PeakConns())
	ph.counts["round_ms_p50"] = stats.RoundLatency().P50 / 1e6
	if peak := stats.PeakConns(); peak > e.layout.MaxDegree() {
		logf("overlay-fleet: peak %d conns/node exceeds the layout degree %d", peak, e.layout.MaxDegree())
		ph.failed++
	}
	return ph, nil
}

func (e *overlayEnv) layers(tr *tracer, ph *phaseResult, m map[string]float64) error {
	self := tr.layerMedians()
	m["core.machines_us_per_op"] = self["core.machines"] / 1e3
	m["core.rounds"] = float64(e.oracles[0].Rounds)
	m["core.msgs_per_op"] = float64(e.oracles[0].Messages)
	m["core.bytes_per_op"] = float64(e.oracles[0].Bytes)
	for _, k := range []string{"frames_per_round", "relayed_per_round", "delivered_ratio",
		"eor_frames_per_round", "writes_per_round", "peak_conns", "round_ms_p50"} {
		m["overlay."+k] = ph.counts[k]
	}
	return nil
}
