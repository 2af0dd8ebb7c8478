package overlay

import (
	"reflect"
	"testing"
	"time"

	"treeaa/internal/core"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// stalled is a machine that sleeps for d inside its round-r step: a party
// that is slow, not faulty, which the barrier waits out.
type stalled struct {
	sim.Machine
	round int
	d     time.Duration
}

func (m stalled) Step(r int, inbox []sim.Message) []sim.Message {
	if r == m.round {
		time.Sleep(m.d)
	}
	return m.Machine.Step(r, inbox)
}

// TestSubleaderStallFailover is the failover drill: a sub-leader stalls for
// three failover timeouts in its round-2 step, so its leaves find it silent
// at the barrier, re-home to the next sub-leader in the ring and pull the
// frames they lack there, while the stalled node keeps relaying once it
// wakes. The Result and trace must match the engine exactly — no lost and
// no double-delivered message.
func TestSubleaderStallFailover(t *testing.T) {
	tr := tree.NewPath(8)
	const n, branching, tc = 12, 3, 3
	const timeout = 500 * time.Millisecond
	inputs := spreadInputs(tr, n, 4)

	var simTrace, treeTrace sim.Trace
	cfg := func(trace *sim.Trace) sim.Config {
		return sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2, Trace: trace}
	}
	want, err := sim.Run(cfg(&simTrace), buildMachines(t, tr, n, tc, inputs))
	if err != nil {
		t.Fatal(err)
	}

	// Party 2 is a sub-leader (n=12, branching 3 → sub-leaders 1..3, its
	// leaves 5, 8, 11).
	machines := buildMachines(t, tr, n, tc, inputs)
	machines[2] = stalled{Machine: machines[2], round: 2, d: 3 * timeout}
	var stats metrics.OverlayStats
	got, err := Cluster(cfg(&treeTrace), machines, Options{
		Branching: branching, Stats: &stats, FailoverTimeout: timeout,
	})
	if err != nil {
		t.Fatalf("Cluster with a stalled sub-leader: %v", err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(treeTrace, simTrace) {
		t.Errorf("results diverge\ntree: %+v\n sim: %+v", got, want)
	}
	if fo := stats.Failovers.Load(); fo < 1 {
		t.Errorf("Failovers = %d, want ≥ 1 (orphaned leaves must re-home)", fo)
	}
	if rp := stats.Replayed.Load(); rp < 1 {
		t.Errorf("Replayed = %d, want ≥ 1 (a re-homed leaf must pull history)", rp)
	}
	t.Logf("sub-leader stall: %s", stats.String())
}

// TestAbandonedParentFrameIgnored: when a leaf fails over, frames its
// abandoned parent's link had already queued are still on the event queue
// behind the new parent's link. A release among them is stale, not an
// offense — the new parent's handshake replay re-sends what it carried — so
// the leaf drops it, and records the release only from the new parent.
func TestAbandonedParentFrameIgnored(t *testing.T) {
	lay, err := NewLayout(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	nd := newNode(5, lay, nil, 10, 1, make([]string, 12), Options{}.withDefaults())
	abandoned, adopted := &link{peer: lay.Parent(5), nd: nd}, &link{peer: 3, nd: nd}
	// What awaitDown's failover leaves behind: the stalled parent's link is
	// forgotten and the next sub-leader's is the parent.
	nd.links[3], nd.parent, nd.parentID = adopted, adopted, 3
	release := wire.OverlayEOR{Round: 1, Down: true}
	if err := nd.handle(levent{l: abandoned, pay: release}); err != nil {
		t.Fatalf("release queued by the abandoned parent: %v", err)
	}
	if nd.hasDown(1) {
		t.Fatal("recorded a release from the abandoned parent")
	}
	if err := nd.handle(levent{l: adopted, pay: release}); err != nil || !nd.hasDown(1) {
		t.Fatalf("release from the new parent: err %v, recorded %v", err, nd.hasDown(1))
	}
}
