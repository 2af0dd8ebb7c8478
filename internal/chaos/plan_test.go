package chaos

import (
	"reflect"
	"testing"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// mustPlan is NewPlan for constant specs in tests.
func mustPlan(spec string, n int) *Plan {
	p, err := NewPlan(spec, n)
	if err != nil {
		panic(err)
	}
	return p
}

// TestParseFullSpec builds the package's flagship example with every link
// clause present, beside a Byzantine clause the plan leaves to the
// adversary.
func TestParseFullSpec(t *testing.T) {
	p, err := NewPlan("splitvote+lat(base=5ms,jitter=3ms)+stall(from=3,rounds=2.4)+drop(from=5,round=3)"+
		"+part(a=0.1.2,b=3.4.5.6.7,rounds=6.7)", 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Latency{{Base: 5 * time.Millisecond, Jitter: 3 * time.Millisecond, From: AllLinks}}; !reflect.DeepEqual(p.Latencies, want) {
		t.Errorf("latencies = %+v, want %+v", p.Latencies, want)
	}
	if want := []Stall{{Party: 3, FromRound: 2, ToRound: 4, Dur: defaultStall}}; !reflect.DeepEqual(p.Stalls, want) {
		t.Errorf("stalls = %+v, want %+v", p.Stalls, want)
	}
	if want := []Drop{{From: 5, To: AllLinks, Round: 3}}; !reflect.DeepEqual(p.Drops, want) {
		t.Errorf("drops = %+v, want %+v", p.Drops, want)
	}
	want := []Partition{{SideA: []sim.PartyID{0, 1, 2}, SideB: []sim.PartyID{3, 4, 5, 6, 7},
		FromRound: 6, ToRound: 7, Heal: defaultHeal}}
	if !reflect.DeepEqual(p.Partitions, want) {
		t.Errorf("partitions = %+v, want %+v", p.Partitions, want)
	}
	if p.Empty() || !p.NeedsReconnect() {
		t.Errorf("Empty = %v, NeedsReconnect = %v", p.Empty(), p.NeedsReconnect())
	}
	if want := "lat(base=5ms,jitter=3ms)+stall(from=3,rounds=2.4)+drop(from=5,round=3)+part(a=0.1.2,b=3.4.5.6.7,rounds=6.7)"; p.Spec != want {
		t.Errorf("Spec = %q, want the link clauses %q", p.Spec, want)
	}
}

func TestParseClauseVariants(t *testing.T) {
	cases := []struct {
		spec  string
		check func(*Plan) bool
	}{
		{"none", func(p *Plan) bool { return p.Empty() && !p.NeedsReconnect() && p.Spec == "" }},
		{"splitvote(per=2)+omit(drop=300)", func(p *Plan) bool { return p.Empty() }},
		{"lat(base=2ms)", func(p *Plan) bool {
			l := p.Latencies[0]
			return l.Base == 2*time.Millisecond && l.Jitter == 0 && l.From == AllLinks
		}},
		{"lat(base=200ms,jitter=150ms,from=2)", func(p *Plan) bool {
			l := p.Latencies[0]
			return l.Base == 200*time.Millisecond && l.Jitter == 150*time.Millisecond && l.From == 2
		}},
		{"lat(base=50ms)+lat(base=500ms,from=0)", func(p *Plan) bool {
			return len(p.Latencies) == 2 && p.Latencies[0].From == AllLinks && p.Latencies[1].From == 0
		}},
		{"stall(from=0,rounds=3)", func(p *Plan) bool {
			s := p.Stalls[0]
			return s.FromRound == 3 && s.ToRound == 3 && s.Dur == defaultStall
		}},
		{"stall(from=0,rounds=3.5,dur=40ms)", func(p *Plan) bool { return p.Stalls[0].Dur == 40*time.Millisecond }},
		{"drop(from=1,to=2,round=4)", func(p *Plan) bool {
			d := p.Drops[0]
			return d.From == 1 && d.To == 2 && d.Round == 4 && p.NeedsReconnect()
		}},
		{"drop(from=1,round=4)", func(p *Plan) bool { return p.Drops[0].To == AllLinks }},
		{"part(a=4,b=0.1.2,rounds=2,heal=80ms)", func(p *Plan) bool {
			part := p.Partitions[0]
			return reflect.DeepEqual(part.SideA, []sim.PartyID{4}) && part.ToRound == 2 &&
				part.Heal == 80*time.Millisecond
		}},
	}
	for _, c := range cases {
		p, err := NewPlan(c.spec, 8)
		if err != nil {
			t.Errorf("NewPlan(%q): %v", c.spec, err)
			continue
		}
		if !c.check(p) {
			t.Errorf("NewPlan(%q) = %+v fails its check", c.spec, p)
		}
	}
}

// rejected reports whether a fabric refuses the spec for n parties at t = 1:
// the plan (link clauses, unknown names) or the adversary (the rest) fails
// to build.
func rejected(spec string, n int) bool {
	if _, err := NewPlan(spec, n); err != nil {
		return true
	}
	_, _, err := (&cli.Space{Tree: tree.NewPath(8)}).BuildAdversary(spec, n, 1, 1)
	return err != nil
}

func TestParseRejections(t *testing.T) {
	specs := []string{
		"lat(base=1ms",                       // unbalanced clause
		"jam(dur=5ms)",                       // unknown clause
		"lat(base=fast)",                     // bad duration
		"lat(base=-2ms)",                     // negative duration
		"lat(base=1ms,jitter=2ms)",           // jitter exceeds base
		"lat(base=1ms)+lat(base=2ms)",        // duplicate latency
		"stall(from=1)",                      // no round window
		"stall(from=p1,rounds=2)",            // party spelled with a prefix
		"stall(from=1,rounds=r2)",            // round spelled with a prefix
		"stall(from=1,rounds=0)",             // rounds start at 1
		"stall(from=1,rounds=5.3)",           // inverted window
		"stall(from=1,rounds=2.3.4)",         // three-bound window
		"stall(party=1,rounds=2)",            // unknown argument
		"drop(from=1,to=1,round=2)",          // self link
		"drop(from=1,to=2,round=2.4)",        // drop with a window
		"drop(from=1,round=0)",               // rounds start at 1
		"crash(rounds=2.3)",                  // a crash is the adversary's, judged by its rules
		"part(a=0.1|2.3,b=4,rounds=2)",       // sides split the old way
		"part(a=0.1.2.3,b=2.3.4.5,rounds=2)", // overlapping sides
		"part(a=0.1,rounds=2)",               // one side
		"part(a=0.1,b=2.3,rounds=2,heal=x)",  // bad heal duration
		"part(a=b.1,b=2.3,rounds=2)",         // bad side
	}
	for _, spec := range specs {
		if !rejected(spec, 8) {
			t.Errorf("%q accepted", spec)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	for _, spec := range []string{"stall(from=9,rounds=1)", "drop(from=0,to=9,round=1)", "part(a=0,b=9,rounds=1)",
		"lat(base=1ms,from=4)", "drop(from=0,to=-1,round=1)"} {
		if !rejected(spec, 4) {
			t.Errorf("%q accepted for n = 4", spec)
		}
	}
	if _, err := NewPlan("stall(from=3,rounds=1)+drop(from=0,to=1,round=2)+part(a=0,b=1.2.3,rounds=1)", 4); err != nil {
		t.Errorf("NewPlan rejected an in-range plan: %v", err)
	}
}

// TestEveryLinkClauseBuilds pins the two tables together: each name cli
// calls a link fault builds a plan clause here, and nothing else does.
func TestEveryLinkClauseBuilds(t *testing.T) {
	full := map[string]string{"lat": "lat(base=1ms)", "stall": "stall(from=0,rounds=1)",
		"drop": "drop(from=0,round=1)", "part": "part(a=0,b=1,rounds=1)"}
	for _, name := range cli.AdversaryNames() {
		spec, link := full[name]
		if link != cli.IsLinkFault(name) {
			t.Errorf("%s: link fault in cli = %v, here = %v", name, cli.IsLinkFault(name), link)
		}
		if !link {
			spec = name
		}
		if p, err := NewPlan(spec, 4); err != nil || p.Empty() == link {
			t.Errorf("NewPlan(%q) = %+v, %v", spec, p, err)
		}
	}
}
