package check

import (
	"fmt"
	"reflect"
	"testing"

	"treeaa/internal/cli"
	"treeaa/internal/crashaa"
	"treeaa/internal/sim"
)

// expandView copies an adversary's view with every broadcast expanded per
// recipient in place: the form honestOut had before the engine handed each
// broadcast over once.
func expandView(n int, view []sim.Message) []sim.Message {
	out := make([]sim.Message, 0, len(view))
	for _, m := range view {
		if m.To != sim.Broadcast {
			out = append(out, m)
			continue
		}
		for to := 0; to < n; to++ {
			m.To = sim.PartyID(to)
			out = append(out, m)
		}
	}
	return out
}

// viewForm hands the adversary it wraps each view as sent or, with expand
// set, in the expanded form, and records what the adversary sends on each
// (sender, recipient) link in order, a broadcast on all n of them.
type viewForm struct {
	sim.Adversary
	n      int
	expand bool
	links  map[[2]sim.PartyID][]sim.Message
}

func (a viewForm) Step(r int, honestOut []sim.Message, inbox map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if a.expand {
		honestOut = expandView(a.n, honestOut)
	}
	out, more := a.Adversary.Step(r, honestOut, inbox)
	for _, m := range expandView(a.n, out) {
		link := [2]sim.PartyID{m.From, m.To}
		a.links[link] = append(a.links[link], m)
	}
	return out, more
}

// viewFormFilter is viewForm for an adversary with omission parties, whose
// filter it forwards.
type viewFormFilter struct {
	viewForm
	f sim.OutboxFilter
}

func (a viewFormFilter) OmissionParties() []sim.PartyID { return a.f.OmissionParties() }
func (a viewFormFilter) FilterOutbox(r int, p sim.PartyID, msgs []sim.Message) []sim.Message {
	return a.f.FilterOutbox(r, p, msgs)
}

// viewRun is what one run shows of the adversary's effect: Result, Trace and
// the adversary's sends on each (sender, recipient) link in order. The links
// are what delivery depends on: mutate keys every draw on the message
// itself, so the order of sends across links is free.
type viewRun struct {
	Res   *sim.Result
	Trace sim.Trace
	Links map[[2]sim.PartyID][]sim.Message
}

func runViewForm(t *testing.T, cfg sim.Config, machines []sim.Machine, expand bool) viewRun {
	t.Helper()
	out := viewRun{Links: map[[2]sim.PartyID][]sim.Message{}}
	cfg.Trace = &out.Trace
	if cfg.Adversary != nil {
		v := viewForm{cfg.Adversary, cfg.N, expand, out.Links}
		cfg.Adversary = v
		if f, ok := v.Adversary.(sim.OutboxFilter); ok {
			cfg.Adversary = viewFormFilter{v, f}
		}
	}
	res, err := sim.Run(cfg, machines)
	if err != nil {
		t.Fatal(err)
	}
	out.Res = res
	return out
}

// TestStrategiesIgnoreViewForm: every strategy of the adversary language,
// and crashaa's PartialCrash, produces the same execution whether honestOut
// holds a broadcast once or expanded per recipient — with and without a
// mutate clause on its sends, on a tree and a graph cell.
func TestStrategiesIgnoreViewForm(t *testing.T) {
	runs := 0
	for _, space := range []string{"spider:3:3", "graph:cliquechain:3:4"} {
		for _, name := range cli.AdversaryNames() {
			for _, mutate := range []string{"", "+mutate(rate=300)"} {
				for seed := int64(1); seed <= 3; seed++ {
					spec := fmt.Sprintf("s=%d;tree=%s;n=7;t=2;in=spread;adv=%s%s", seed, space, name, mutate)
					c, err := Parse(spec)
					if err != nil {
						t.Fatalf("%s: %v", spec, err)
					}
					cr, err := compile(c)
					if err != nil {
						t.Fatalf("%s: %v", spec, err)
					}
					var got [2]viewRun
					for i, expand := range []bool{false, true} {
						cfg, err := cr.config()
						if err != nil {
							t.Fatal(err)
						}
						ms, _, _, err := cr.machines(false)
						if err != nil {
							t.Fatal(err)
						}
						got[i] = runViewForm(t, cfg, ms, expand)
					}
					if !reflect.DeepEqual(got[0], got[1]) {
						t.Errorf("%s: execution depends on the view's form:\n as sent: %+v\nexpanded: %+v", spec, got[0], got[1])
					}
					runs++
				}
			}
		}
	}

	// PartialCrash re-delivers a crashed party's own round traffic to a
	// prefix of the recipients; it runs against crashaa's machines.
	const n = 6
	inputs := []float64{0, 100, 50, 25, 75, 10}
	for seed := 1; seed <= 3; seed++ {
		var got [2]viewRun
		for i, expand := range []bool{false, true} {
			machines := make([]sim.Machine, n)
			for p := range machines {
				m, err := crashaa.NewMachine(crashaa.Config{N: n, ID: sim.PartyID(p), Iterations: 6, Input: inputs[p]})
				if err != nil {
					t.Fatal(err)
				}
				machines[p] = m
			}
			adv := &crashaa.PartialCrash{IDs: []sim.PartyID{4, 5}, Rounds: []int{seed, seed + 1}, Cutoffs: []int{seed + 1, n - seed}}
			got[i] = runViewForm(t, sim.Config{N: n, MaxCorrupt: n - 1, MaxRounds: 8, Adversary: adv}, machines, expand)
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("PartialCrash seed %d: execution depends on the view's form:\n as sent: %+v\nexpanded: %+v", seed, got[0], got[1])
		}
		runs++
	}
	t.Logf("%d executions compared", runs)
}
