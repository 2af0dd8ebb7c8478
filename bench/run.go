package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// runCtx is what a pass hands a workload: the seed its spec stream derives
// from, the generator's width, and a scratch directory inside the checkout.
type runCtx struct {
	seed    int64
	seconds float64
	nproc   int
	tmp     string
}

// rotation is a workload's place in its pool of inputs. Untraced phases —
// the warm-up and the many short slices of a timed stretch — carry on where
// the last one stopped, so a run of slices walks the whole pool as one long
// phase would. A traced phase starts at 0: the exact counts it reports are
// those of the pool's first operation whatever ran before it.
type rotation int

func (r *rotation) begin(tr *tracer) int {
	if tr != nil {
		*r = 0
	}
	return int(*r)
}

func (r *rotation) advance(ops int) { *r += rotation(ops) }

// result is one pass over one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Counts records how much was run: operations, warm-up operations,
	// set-up repeats, clients, rates, preparation and pass wall time.
	Counts map[string]float64 `json:"counts"`
	// Tail is the highest percentile the sample supports (≥10 samples
	// beyond it) with its value in ms; 0 when only the median is supported.
	TailPercentile float64 `json:"tail_percentile"`
	TailMS         float64 `json:"tail_ms"`
	Samples        int     `json:"samples"`
}

const (
	// sliceLen is how long one slice of the untraced timed stretch runs; a
	// slice always holds at least one whole operation.
	sliceLen  = 100 * time.Millisecond
	warmupMax = 2 * time.Second
	// Set-up is repeated at least three times, then until it has taken
	// setupSpend seconds or been done setupReps times.
	setupSpend, setupReps = 1.5, 100
	// quietShare is how far from the quiet end of a run's distribution the
	// end-to-end figures are read: see quiet.
	quietShare = 0.02
)

// quiet reads a figure off the quiet end of its distribution over one run:
// the 2nd percentile where lower is better, the 98th where higher is.
//
// The host this runs on is a small share of a busy machine. What its
// neighbours do only ever adds to an operation's time, by 10–50 % for seconds
// to minutes on end, so a run's mean and median follow the neighbours; the
// operations and slices that fell into the gaps between their bursts stay
// with the program's own cost. Over ten interleaved 25 s runs the median
// spread (interquartile range ÷ median) by 18 % on kernel-batch, 13 % on
// serve-closed and 10 % on mesh-fleet; the 2nd percentile by 6 %, 8 % and
// 4 %. Lower still is no steadier (the minimum rewards one lucky sample) and
// the 10th percentile is lost whenever a whole run is noisy.
//
// What it costs: a change that slows every operation moves the 2nd
// percentile as it moves the median, but one that slows only some operations
// — a stall every so often — does not show in latency_p2_ms. It shows in the
// rate and CPU figures once it is frequent enough to reach every 100 ms slice,
// and in the per-layer client.latency_p50/p90/p99_ms.
func quiet(xs []float64, better string) float64 {
	if better == "higher" {
		return quantile(sortedCopy(xs), 1-quietShare)
	}
	return quantile(sortedCopy(xs), quietShare)
}

// runWorkload makes one pass: repeated set-up and preparation (quiet end →
// setup_s), a discarded warm-up, then either the untraced timed stretch
// (end-to-end metrics, sliced) or the traced one (per-layer metrics, plus an
// untraced reference stretch the tracing overhead is judged against).
func runWorkload(w *workload, c *runCtx, traced bool, traceDir string) (*result, error) {
	passStart := time.Now()
	// Set up several times: the program's own set-up (timed on its own as
	// setup_program_s) plus the harness's preparation, which is mostly program
	// code too (parsers, oracles). All but the last environment are torn down
	// again. setup_s is read off the quiet end of the repeats like every other
	// time here — set-up is all allocation, the work the neighbours slow most:
	// over twelve runs the median of a run's 100 repeats spread by 17–27 % and
	// sank by 21 % from the first six runs to the last, their 2nd percentile
	// spread by 4–6 % and moved by 2 %.
	var (
		e               env
		program, totals []float64
	)
	for spent := 0.0; len(totals) < 3 || (spent < setupSpend && len(totals) < setupReps); {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		next, err := w.setup(c)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		e = next
		t1 := time.Now()
		if err := e.prepare(); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: prepare: %w", w.Name, err)
		}
		d := time.Since(t0).Seconds()
		program, totals, spent = append(program, t1.Sub(t0).Seconds()), append(totals, d), spent+d
	}
	defer e.close()

	dur := time.Duration(c.seconds * float64(time.Second))
	warm, err := e.phase(min(dur/10, warmupMax), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
	}

	res := &result{Workload: w.Name, Seed: c.seed, Traced: traced, Metrics: map[string]float64{},
		Counts: map[string]float64{"setup_reps": float64(len(totals)), "setup_program_s": quiet(program, "lower"),
			"warmup_ops": float64(warm.attempted), "generator_goroutines": float64(c.nproc)}}
	var ph *phaseResult
	if !traced {
		// The timed stretch is cut into short slices — each a phase of its
		// own, verified like any other — and every figure is read off the
		// quiet end of its distribution (see quiet): latency over all
		// operations, rate and CPU per operation over the slices.
		var rate, cpuPerOp []float64
		ph = &phaseResult{counts: map[string]float64{}}
		for start := time.Now(); ph.attempted == 0 || time.Since(start) < dur; {
			sl, err := e.phase(sliceLen, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			ph.attempted, ph.failed = ph.attempted+sl.attempted, ph.failed+sl.failed
			ph.latency = append(ph.latency, sl.latency...)
			ph.counts = sl.counts
			if sl.ok() > 0 {
				rate = append(rate, ratio(float64(sl.ok()), sl.meter.wall.Seconds()))
				cpuPerOp = append(cpuPerOp, ratio(ms(sl.meter.cpu), float64(sl.ok())))
			}
		}
		res.Metrics["setup_s"] = quiet(totals, "lower")
		res.Metrics["ops_per_s_p98"] = quiet(rate, "higher")
		res.Metrics["latency_p2_ms"] = quiet(ph.latency, "lower")
		res.Metrics["cpu_ms_per_op_p2"] = quiet(cpuPerOp, "lower")
		res.Counts["slices"] = float64(len(rate))
	} else {
		ref, err := e.phase(dur/4, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: reference stretch: %w", w.Name, err)
		}
		tr := newTracer()
		if ph, err = e.phase(dur/4, tr); err != nil {
			return nil, fmt.Errorf("%s: traced: %w", w.Name, err)
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = 0
		}
		runtime.GC() // the phase's garbage is not the replays' to collect
		if err := e.layers(tr, ph, res.Metrics); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", w.Name, err)
		}
		lat := sortedCopy(ph.latency)
		res.Metrics["client.latency_p50_ms"] = quantile(lat, 0.50)
		res.Metrics["client.latency_p90_ms"] = quantile(lat, 0.90)
		res.Metrics["client.latency_p99_ms"] = quantile(lat, 0.99)
		tracedRate := ratio(float64(ph.ok()), ph.meter.wall.Seconds())
		res.Metrics["trace.ops_per_s"] = tracedRate
		res.Metrics["trace_overhead_ratio"] = 1 - ratio(tracedRate, ratio(float64(ref.ok()), ref.meter.wall.Seconds()))
		res.Attempted, res.Failed = ref.attempted, ref.failed
		if err := tr.write(filepath.Join(traceDir, "trace-"+w.Name+".json")); err != nil {
			logf("%s: spans not written: %v", w.Name, err)
		}
	}
	res.Attempted += ph.attempted + warm.attempted
	res.Failed += ph.failed + warm.failed
	for k, v := range ph.counts {
		res.Counts[k] = v
	}
	res.Counts["ops"] = float64(ph.attempted)
	res.Counts["pass_wall_s"] = time.Since(passStart).Seconds()

	lat := sortedCopy(ph.latency)
	res.Samples = len(lat)
	if p := highestPercentile(len(lat)); p > 0 {
		res.TailPercentile, res.TailMS = p, quantile(lat, p)
	}
	return res, nil
}
