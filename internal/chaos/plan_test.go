package chaos

import (
	"reflect"
	"testing"
	"time"

	"treeaa/internal/sim"
)

// TestParseFullSpec decodes the package's flagship example with every
// clause type present.
func TestParseFullSpec(t *testing.T) {
	p, err := Parse("lat:5ms±3ms,stall:p3@r2-4,drop:p5@r3,partition:{0-2|3-7}@r6-7")
	if err != nil {
		t.Fatal(err)
	}
	if want := []Latency{{Base: 5 * time.Millisecond, Jitter: 3 * time.Millisecond, From: AllLinks}}; !reflect.DeepEqual(p.Latencies, want) {
		t.Errorf("latencies = %+v, want %+v", p.Latencies, want)
	}
	if want := []Stall{{Party: 3, FromRound: 2, ToRound: 4, Dur: DefaultStall}}; !reflect.DeepEqual(p.Stalls, want) {
		t.Errorf("stalls = %+v, want %+v", p.Stalls, want)
	}
	if want := []Drop{{From: 5, To: AllLinks, Round: 3}}; !reflect.DeepEqual(p.Drops, want) {
		t.Errorf("drops = %+v, want %+v", p.Drops, want)
	}
	want := []Partition{{SideA: []sim.PartyID{0, 1, 2}, SideB: []sim.PartyID{3, 4, 5, 6, 7},
		FromRound: 6, ToRound: 7, Heal: DefaultHeal}}
	if !reflect.DeepEqual(p.Partitions, want) {
		t.Errorf("partitions = %+v, want %+v", p.Partitions, want)
	}
	if p.Empty() || !p.NeedsReconnect() {
		t.Errorf("Empty = %v, NeedsReconnect = %v", p.Empty(), p.NeedsReconnect())
	}
}

func TestParseClauseVariants(t *testing.T) {
	cases := []struct {
		spec  string
		check func(*Plan) bool
	}{
		{"", func(p *Plan) bool { return p.Empty() && !p.NeedsReconnect() }},
		{"lat:2ms", func(p *Plan) bool {
			l := p.Latencies[0]
			return l.Base == 2*time.Millisecond && l.Jitter == 0 && l.From == AllLinks
		}},
		{"lat:5ms+-3ms", func(p *Plan) bool { return p.Latencies[0].Jitter == 3*time.Millisecond }},
		{"lat:200ms±150ms@p2", func(p *Plan) bool {
			l := p.Latencies[0]
			return l.Base == 200*time.Millisecond && l.Jitter == 150*time.Millisecond && l.From == 2
		}},
		{"lat:50ms,lat:500ms@p0", func(p *Plan) bool {
			return len(p.Latencies) == 2 && p.Latencies[0].From == AllLinks && p.Latencies[1].From == 0
		}},
		{"stall:p0@r3", func(p *Plan) bool {
			s := p.Stalls[0]
			return s.FromRound == 3 && s.ToRound == 3 && s.Dur == DefaultStall
		}},
		{"stall:p0@r3-5:40ms", func(p *Plan) bool { return p.Stalls[0].Dur == 40*time.Millisecond }},
		{"drop:p1-p2@r4", func(p *Plan) bool {
			d := p.Drops[0]
			return d.From == 1 && d.To == 2 && d.Round == 4 && p.NeedsReconnect()
		}},
		{"drop:p1@r4", func(p *Plan) bool { return p.Drops[0].To == AllLinks }},
		{"partition:{4|0-2}@r2:80ms", func(p *Plan) bool {
			part := p.Partitions[0]
			return reflect.DeepEqual(part.SideA, []sim.PartyID{4}) && part.ToRound == 2 &&
				part.Heal == 80*time.Millisecond
		}},
	}
	for _, c := range cases {
		p, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if !c.check(p) {
			t.Errorf("Parse(%q) = %+v fails its check", c.spec, p)
		}
	}
}

func TestParseRejections(t *testing.T) {
	specs := []string{
		"nonsense",                 // no colon
		"jam:5ms",                  // unknown clause
		"lat:fast",                 // bad duration
		"lat:-2ms",                 // negative duration
		"lat:1ms±2ms",              // jitter exceeds base
		"lat:1ms,lat:2ms",          // duplicate latency
		"stall:p1",                 // no round window
		"stall:1@r2",               // party without p prefix
		"stall:p1@2",               // round without r prefix
		"stall:p1@r0",              // rounds start at 1
		"stall:p1@r5-3",            // inverted window
		"drop:p1-p1@r2",            // self link
		"drop:p1-p2@r2-4",          // drop with a window
		"crash:p1@r2",              // a crashed party is the adversary's stop clause
		"partition:0-1|2-3@r2",     // missing braces
		"partition:{0-3|2-5}@r2",   // overlapping sides
		"partition:{0-1}@r2",       // one side
		"partition:{0-1|2-3}@r2:x", // bad heal duration
		"partition:{b-1|2-3}@r2",   // bad side
	}
	for _, spec := range specs {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted the spec", spec)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	for _, spec := range []string{"stall:p9@r1", "drop:p0-p9@r1", "partition:{0|9}@r1"} {
		if err := MustParse(spec).Validate(4); err == nil {
			t.Errorf("Validate accepted %q for n = 4", spec)
		}
	}
	if err := MustParse("stall:p3@r1,drop:p0-p1@r2,partition:{0|1-3}@r1").Validate(4); err != nil {
		t.Errorf("Validate rejected an in-range plan: %v", err)
	}
}
