package check

import (
	"fmt"
	"reflect"

	"treeaa/internal/chaos"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// Options tunes one cell run.
type Options struct {
	// TCP also runs the cell on the loopback TCP transport and compares
	// results, when the cell is transport-compatible. Roughly 100x slower
	// than the in-process differential; cmd/check samples every Nth cell.
	TCP bool
}

// CellResult is the outcome of running one cell.
type CellResult struct {
	// Spec is the cell's canonical one-line spec.
	Spec string `json:"spec"`
	// Violations holds every invariant failure (empty for a clean cell).
	Violations []Violation `json:"violations,omitempty"`
	// Rounds and Messages are the sequential oracle run's statistics.
	Rounds   int `json:"rounds"`
	Messages int `json:"messages"`
	// TCPChecked reports whether the TCP differential actually ran.
	TCPChecked bool `json:"tcpChecked,omitempty"`
	// LinkFaults counts the (ordered link, round) pairs the cell's link
	// clauses acted on under the TCP run (metrics.ChaosStats.FaultedRounds).
	// The per-frame counts are left out: how many frames a drop makes the
	// transport resend depends on timing, and a resent frame's round is
	// already counted here, so two runs of a cell print the same line.
	LinkFaults int64 `json:"linkFaults,omitempty"`
}

// RunCell executes one cell and evaluates every invariant: the sequential
// probe run is the oracle; a concurrent run (and, when requested and
// compatible, a TCP run under the cell's link faults) must reproduce its
// sim.Result exactly. The error return reports an unbuildable cell (bad
// spec), never a protocol failure — those are Violations.
func RunCell(c *Cell, opt Options) (*CellResult, error) {
	cr, err := compile(c)
	if err != nil {
		return nil, err
	}
	out := &CellResult{Spec: c.String()}

	// Sequential oracle run, with per-round probes.
	cfg, err := cr.config()
	if err != nil {
		return nil, err
	}
	ms, cores, probes, err := cr.machines(true)
	if err != nil {
		return nil, err
	}
	res, runErr := sim.Run(cfg, ms)
	out.Violations = append(out.Violations, cr.evaluate(res, runErr, cores, probes)...)
	if runErr != nil {
		return out, nil // no oracle result to compare against
	}
	out.Rounds, out.Messages = res.Rounds, res.Messages

	// Concurrent differential: fresh machines and adversary (both hold
	// state), identical Result expected.
	ccfg, err := cr.config()
	if err != nil {
		return nil, err
	}
	cms, _, _, err := cr.machines(false)
	if err != nil {
		return nil, err
	}
	cres, cerr := sim.RunConcurrent(ccfg, cms)
	if cerr != nil {
		out.Violations = append(out.Violations, Violation{Cell: out.Spec, Invariant: "differential-concurrent",
			Detail: fmt.Sprintf("RunConcurrent failed where Run succeeded: %v", cerr)})
	} else if !reflect.DeepEqual(cres, res) {
		out.Violations = append(out.Violations, Violation{Cell: out.Spec, Invariant: "differential-concurrent",
			Detail: fmt.Sprintf("results diverge\n  concurrent: %+v\n  sequential: %+v", cres, res)})
	}

	// The TCP differential: every cell but an adaptive crash, whose
	// corruption would retract sends already on the wire. The link clauses
	// are delays and repaired losses, which the transport must render
	// invisible.
	if opt.TCP && !cr.adaptive {
		tcfg, err := cr.config()
		if err != nil {
			return nil, err
		}
		tms, _, _, err := cr.machines(false)
		if err != nil {
			return nil, err
		}
		stats := &metrics.ChaosStats{}
		tres, terr := transport.LocalCluster(tcfg, tms, chaos.NewInjector(cr.plan, c.Seed, stats).Apply(transport.Options{}))
		out.TCPChecked = true
		out.LinkFaults = stats.FaultedRounds.Load()
		if terr != nil {
			out.Violations = append(out.Violations, Violation{Cell: out.Spec, Invariant: "differential-tcp",
				Detail: fmt.Sprintf("LocalCluster failed where Run succeeded: %v", terr)})
		} else if !reflect.DeepEqual(tres, res) {
			out.Violations = append(out.Violations, Violation{Cell: out.Spec, Invariant: "differential-tcp",
				Detail: fmt.Sprintf("results diverge\n  tcp: %+v\n  sequential: %+v", tres, res)})
		}
	}
	return out, nil
}

// Violates reports whether the cell produces at least one violation; cells
// that fail to build do not violate (the shrinker uses this to discard
// over-shrunk candidates).
func Violates(c *Cell, opt Options) bool {
	res, err := RunCell(c, opt)
	return err == nil && len(res.Violations) > 0
}

// Schedule renders the fault schedule the cell's link clauses materialize
// under its TCP run, frames delays per link; "" when it has none.
func Schedule(c *Cell, frames int) (string, error) {
	cr, err := compile(c)
	if err != nil || cr.plan.Empty() {
		return "", err
	}
	return cr.plan.Schedule(c.Seed, c.N, frames), nil
}
