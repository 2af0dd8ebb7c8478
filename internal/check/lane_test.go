package check

import (
	"testing"

	"treeaa/internal/sim"
)

// laneSpy forwards a step, lane included, and records per round the most
// digest hits the lane had counted by the end of one of its steps — after
// the round's last lane reader, the round's adoptions.
type laneSpy struct {
	sim.Machine
	hits map[int]int
}

func (s laneSpy) StepLane(r int, inbox []sim.Message, lane *sim.Lane) []sim.Message {
	out := sim.StepLane(s.Machine, r, inbox, lane)
	s.hits[r] = max(s.hits[r], lane.Hits())
	return out
}

// laneAdoptions runs the cell's sequential oracle under sim.Run, on probe-
// wrapped machines or bare ones, and returns how many passes were adopted.
func laneAdoptions(t *testing.T, spec string, probe bool) int {
	t.Helper()
	cr, err := compile(MustParse(spec))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cr.config()
	if err != nil {
		t.Fatal(err)
	}
	ms, _, _, err := cr.machines(probe)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[int]int{}
	for i, m := range ms {
		ms[i] = laneSpy{m, hits}
	}
	if _, err := sim.Run(cfg, ms); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	return total
}

// TestProbeRunReadsLanes: the checker's oracle run takes the shared-lane
// path, so the concurrent differential compares it with private passes on
// every cell. A probe that stopped forwarding the lane would adopt nothing;
// one that forwards it adopts exactly what bare machines do.
func TestProbeRunReadsLanes(t *testing.T) {
	for _, spec := range []string{
		"s=1;tree=spider:3:3;n=4;t=1;in=spread",
		"s=2;tree=path:40;n=7;t=2;in=spread;adv=splitvote",
		"s=3;tree=graph:cliquechain:3:4;n=5;t=1;in=spread;adv=equivocator(hi=500,lo=-50)",
		"s=4;tree=caterpillar:4:2;n=7;t=2;in=spread;adv=halfburn+omit(drop=400,halves=1)",
	} {
		probed, bare := laneAdoptions(t, spec, true), laneAdoptions(t, spec, false)
		if probed == 0 {
			t.Errorf("%s: the probe-wrapped oracle run adopted no lane digest", spec)
		}
		if probed != bare {
			t.Errorf("%s: probe-wrapped run adopted %d digests, bare machines %d", spec, probed, bare)
		}
	}
}
