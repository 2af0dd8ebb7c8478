package adversary_test

import (
	"reflect"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// TestBuildCoversEveryName pins that the adversary language's table builds
// every strategy it names, that only the omission clauses (omit, stop) name
// omission parties, that the modifier (mutate) and the link faults claim no
// party, and that every name round-trips through Clause.String and
// ParseAdversary (FuzzParseAdversary round-trips clauses with arguments).
func TestBuildCoversEveryName(t *testing.T) {
	sp := &cli.Space{Tree: tree.NewPath(9)}
	// A link fault needs the arguments that name its link.
	links := map[string]string{"lat": "lat(base=1ms)", "stall": "stall(from=0,rounds=1)",
		"drop": "drop(from=0,round=1)", "part": "part(a=0,b=1,rounds=1)"}
	for _, name := range cli.AdversaryNames() {
		clause := name
		if link, ok := links[name]; ok {
			clause = link
		}
		spec := clause
		if name == "mutate" || cli.IsLinkFault(name) {
			if adv, corrupt, err := sp.BuildAdversary(spec, 7, 2, 1); err != nil || adv != nil || len(corrupt) != 0 {
				t.Fatalf("BuildAdversary(%q) = (%v, %v, %v), want nothing to modify", spec, adv, corrupt, err)
			}
			spec = "silent+" + spec
		}
		adv, corrupt, err := sp.BuildAdversary(spec, 7, 2, 1)
		if err != nil {
			t.Fatalf("BuildAdversary(%q): %v", spec, err)
		}
		if adv == nil || len(corrupt) != 2 {
			t.Fatalf("BuildAdversary(%q) = (%v, %v)", spec, adv, corrupt)
		}
		wantOmits := name == "omit" || name == "stop"
		if omits := len(adv.(sim.OutboxFilter).OmissionParties()) > 0; omits != wantOmits {
			t.Errorf("BuildAdversary(%q): omission parties = %v, want %v", name, omits, wantOmits)
		}
		want, err := cli.ParseAdversary(clause)
		if err != nil {
			t.Fatalf("ParseAdversary(%q): %v", clause, err)
		}
		if got, err := cli.ParseAdversary(want[0].String()); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseAdversary(%q) = %v, %v; want %v", want[0].String(), got, err, want)
		}
	}
	for _, spec := range []string{"crash(rounds=1)", "stop(rounds=1)"} {
		if _, _, err := sp.BuildAdversary(spec, 7, 2, 1); err == nil {
			t.Errorf("%s with one round for two parties succeeded, want error", spec)
		}
	}
}

// TestBuildMatchesLiterals pins that the table wires every argument
// through: a compiled clause equals the struct literals it stands for, one
// per TreeAA phase for the phase-scoped strategies.
func TestBuildMatchesLiterals(t *testing.T) {
	tr := tree.NewPath(9)
	n, tc, seed := 7, 2, int64(9)
	ids := adversary.FirstParties(n, tc)
	phased := func(mk func(p core.PhaseTag, k int) sim.Adversary) []sim.Adversary {
		var parts []sim.Adversary
		for k, p := range core.PhaseTags(tr, tc) {
			parts = append(parts, mk(p, k))
		}
		return parts
	}
	for _, c := range []struct {
		spec string
		want []sim.Adversary
	}{
		{"silent", []sim.Adversary{&adversary.Silent{IDs: ids}}},
		{"crash(rounds=3.8)", []sim.Adversary{&adversary.CrashAt{IDs: ids, Rounds: []int{3, 8}}}},
		{"stop(rounds=3.8)", []sim.Adversary{&adversary.Stop{IDs: ids, N: n, Rounds: []int{3, 8}}}},
		{"equivocator(hi=2,lo=-1)", phased(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: p.Tag, StartRound: p.StartRound, Lo: -1, Hi: 2}
		})},
		{"equivocator", phased(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.GradecastEquivocator{IDs: ids, N: n, Tag: p.Tag, StartRound: p.StartRound, Lo: -100, Hi: 1e6}
		})},
		{"splitvote(per=2)", phased(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.SplitVote{IDs: ids, N: n, T: tc, Tag: p.Tag, StartRound: p.StartRound, PerIteration: 2}
		})},
		{"halfburn", phased(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.HalfBurn{IDs: ids, N: n, T: tc, Tag: p.Tag, StartRound: p.StartRound}
		})},
		{"noise(maxval=33)", phased(func(p core.PhaseTag, k int) sim.Adversary {
			return &adversary.RandomNoise{IDs: ids, N: n, Tag: p.Tag, StartRound: p.StartRound, Seed: seed + int64(1000*k), MaxVal: 33}
		})},
		{"replay(delay=6)", []sim.Adversary{&adversary.Replay{IDs: ids, Delay: 6}}},
		{"frame(fake=3)", phased(func(p core.PhaseTag, _ int) sim.Adversary {
			return &adversary.FrameHonest{IDs: ids, N: n, Tag: p.Tag, Fake: 3}
		})},
	} {
		got, _, err := (&cli.Space{Tree: tr}).BuildAdversary(c.spec, n, tc, seed)
		if err != nil {
			t.Fatalf("BuildAdversary(%q): %v", c.spec, err)
		}
		if want := (&adversary.Compose{Strategies: c.want}); !reflect.DeepEqual(got, want) {
			t.Errorf("BuildAdversary(%q) = %#v, want %#v", c.spec, got, want)
		}
	}

	// Omission beside a Byzantine clause: the lower t/2 ids omit, the rest
	// are Byzantine, and the noise seed counts the clause's position.
	got, corrupt, err := (&cli.Space{Tree: tr}).BuildAdversary("omit(drop=250,halves=1)+none+noise", n, tc, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := &adversary.Compose{Strategies: append(
		[]sim.Adversary{&adversary.SendOmitter{IDs: ids[:1], N: n, Drop: 0.25, Halves: true, Seed: seed}},
		phased(func(p core.PhaseTag, k int) sim.Adversary {
			return &adversary.RandomNoise{IDs: ids[1:], N: n, Tag: p.Tag, StartRound: p.StartRound,
				Seed: seed + int64(1000*k+37*2), MaxVal: 2 * tr.NumVertices()}
		})...)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("omit+none+noise = %#v, want %#v", got, want)
	}
	if len(corrupt) != 2 || !corrupt[ids[0]] || !corrupt[ids[1]] {
		t.Errorf("omit+none+noise corrupts %v, want %v", corrupt, ids)
	}

	// The modifier wraps what the other clauses compose, whatever its
	// position, and takes no share of the corrupted set.
	for spec, rate := range map[string]int{"mutate(rate=300)+omit+silent": 300, "omit+silent+mutate": 200} {
		got, corrupt, err := (&cli.Space{Tree: tr}).BuildAdversary(spec, n, tc, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := &adversary.Mutate{OutboxFilter: &adversary.Compose{Strategies: []sim.Adversary{
			&adversary.SendOmitter{IDs: ids[:1], N: n, Drop: 0.5, Seed: seed}, &adversary.Silent{IDs: ids[1:]},
		}}, N: n, Rate: rate, Seed: seed}
		if !reflect.DeepEqual(got, want) || len(corrupt) != 2 {
			t.Errorf("%s = %#v corrupting %v, want %#v", spec, got, corrupt, want)
		}
	}
}
