package check

import (
	"treeaa/internal/core"
	"treeaa/internal/gradecast"
	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// Phase keys for probe snapshots: one per RealAA instance a TreeAA machine
// may run.
const (
	phasePathsFind = "pf"     // PathsFinder's inner RealAA
	phasePathAA    = "pathaa" // the Section 5 phase's RealAA
)

// probeSets is one RealAA instance's detection state at the end of a round.
type probeSets struct {
	suspected map[sim.PartyID]bool
	ignored   map[sim.PartyID]bool
}

// probeRec is one party's probe snapshot for one round.
type probeRec struct {
	round int
	sets  map[string]probeSets // phase key → detection state
}

// probeMachine wraps a machine and snapshots the suspicion and exclusion
// sets of every active RealAA sub-execution after each round, so the checker
// can evaluate per-round monotonicity ("once burned, always burned") without
// changing the machine's behavior. m is the machine actually driven (the
// TreeAA machine for tree cells, the graph machine for graph cells) and
// inner is the core machine whose probe surface is read — the same object
// for tree cells, the graph machine's inner TreeAA instance otherwise. It is
// driven only by the sequential oracle run — the concurrent and TCP
// differential runs use bare machines, keeping the probes free of
// cross-goroutine access.
type probeMachine struct {
	m     sim.Machine
	inner *core.Machine
	recs  []probeRec
}

var _ sim.LaneReader = (*probeMachine)(nil)

// Step implements sim.Machine: advance the wrapped machine, then snapshot.
func (p *probeMachine) Step(r int, inbox []sim.Message) []sim.Message {
	return p.StepLane(r, inbox, nil)
}

// StepLane implements sim.LaneReader: Step, with the lane forwarded to the
// wrapped machine, so that the sequential oracle run reads lanes as a bare
// sim.Run does and the concurrent differential, which never gets a lane,
// checks the shared pass against private ones.
func (p *probeMachine) StepLane(r int, inbox []sim.Message, lane *sim.Lane) []sim.Message {
	out := sim.StepLane(p.m, r, inbox, lane)
	rec := probeRec{round: r, sets: map[string]probeSets{}}
	snapshot := func(key string, m *realaa.Machine) {
		if m == nil {
			return
		}
		rec.sets[key] = probeSets{suspected: m.Suspected(), ignored: m.Ignored()}
	}
	if pf := p.inner.PathsFinderMachine(); pf != nil {
		snapshot(phasePathsFind, pf.RealAA())
	}
	if known := p.inner.PathAAMachine(); known != nil {
		snapshot(phasePathAA, known.RealAA())
	}
	p.recs = append(p.recs, rec)
	return out
}

// Output implements sim.Machine.
func (p *probeMachine) Output() (any, bool) { return p.m.Output() }

// evilMachine is the checker's planted bug, deliberately out of model: it
// wraps an honest machine and sets the value of each of its gradecast sends
// to val. The rewrite is the same for every recipient, so no equivocation
// is ever observed and the burn rule stays silent — exactly the violation
// the shrinker demo (cmd/check -inject-bad) needs. Suspicion-mask instances
// are left alone, so the violation is purely a value-level one.
type evilMachine struct {
	sim.Machine
	val float64
	out []sim.Message // the rewritten outbox, reused across rounds
}

// Step implements sim.Machine: the inner outbox, copied and rewritten (the
// inner machine may reuse its own buffer, so it is never written in place).
func (e *evilMachine) Step(r int, inbox []sim.Message) []sim.Message {
	e.out = append(e.out[:0], e.Machine.Step(r, inbox)...)
	for i, m := range e.out {
		if s, ok := m.Payload.(*gradecast.SendMsg); ok && !isSuspicionTag(s.Tag) {
			evil := *s // a sent payload is never written: rewrite a copy
			evil.Val = e.val
			e.out[i].Payload = &evil
		}
	}
	return e.out
}

// isSuspicionTag reports whether tag is a RealAA suspicion-mask instance
// ("<tag>/acc" or "<tag>/accN").
func isSuspicionTag(tag string) bool {
	i := len(tag) - 1
	for i >= 0 && tag[i] >= '0' && tag[i] <= '9' {
		i--
	}
	return i >= 3 && tag[i-3:i+1] == "/acc"
}
