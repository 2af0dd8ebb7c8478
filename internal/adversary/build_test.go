package adversary

import (
	"reflect"
	"testing"

	"treeaa/internal/realaa"
	"treeaa/internal/sim"
)

// TestBuildCoversEveryName pins that the registry constructs every strategy
// it advertises and that each instance satisfies the interfaces it claims.
func TestBuildCoversEveryName(t *testing.T) {
	ids := []sim.PartyID{5, 6}
	p := Params{
		IDs: ids, N: 7, T: 2, Tag: "real", StartRound: 1, Seed: 1,
		PerIteration: 1, Delay: 3, Lo: -10, Hi: 110, MaxVal: 50,
		Rounds: []int{2, 4}, Drop: 0.5, Fake: 7,
	}
	for _, name := range Names() {
		adv, err := Build(name, p)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if adv == nil {
			t.Fatalf("Build(%q) = nil", name)
		}
		if _, isFilter := adv.(sim.OutboxFilter); isFilter != (name == "omit") {
			t.Errorf("Build(%q): OutboxFilter = %v, want %v", name, isFilter, name == "omit")
		}
	}
	if _, err := Build("bogus", p); err == nil {
		t.Error("Build(bogus) succeeded, want error")
	}
	if _, err := Build("crash", Params{IDs: ids, Rounds: []int{1}}); err == nil {
		t.Error("Build(crash) with mismatched rounds succeeded, want error")
	}
}

// TestBuildMatchesLiterals pins that Build wires every knob through: a built
// strategy equals the corresponding struct literal.
func TestBuildMatchesLiterals(t *testing.T) {
	ids := []sim.PartyID{4, 5, 6}
	p := Params{IDs: ids, N: 7, T: 2, Tag: "x", StartRound: 4, Seed: 9,
		PerIteration: 2, Delay: 6, Lo: -1, Hi: 2, MaxVal: 33, Drop: 0.25, Halves: true, Fake: 3}
	for _, tc := range []struct {
		name string
		want sim.Adversary
	}{
		{"silent", &Silent{IDs: ids}},
		{"equivocator", &GradecastEquivocator{IDs: ids, N: 7, Tag: "x", StartRound: 4, Lo: -1, Hi: 2}},
		{"splitvote", &SplitVote{IDs: ids, N: 7, T: 2, Tag: "x", StartRound: 4, PerIteration: 2}},
		{"halfburn", &HalfBurn{IDs: ids, N: 7, T: 2, Tag: "x", StartRound: 4}},
		{"noise", &RandomNoise{IDs: ids, N: 7, Tag: "x", StartRound: 4, Seed: 9, MaxVal: 33}},
		{"replay", &Replay{IDs: ids, Delay: 6}},
		{"frame", &FrameHonest{IDs: ids, N: 7, Tag: "x", Fake: 3}},
		{"omit", &SendOmitter{IDs: ids, N: 7, Drop: 0.25, Halves: true, Seed: 9}},
	} {
		got, err := Build(tc.name, p)
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Build(%q) = %#v, want %#v", tc.name, got, tc.want)
		}
	}
}

// TestComposeOmission pins the OutboxFilter forwarding: a composed mix of a
// Byzantine strategy and an omitter presents the omitter's parties and
// scopes filtering to them, and the protocol still converges under the mix.
func TestComposeOmission(t *testing.T) {
	n, tc := 7, 2
	byz, err := Build("equivocator", Params{IDs: []sim.PartyID{6}, N: n, Tag: "real", StartRound: 1, Lo: -10, Hi: 110})
	if err != nil {
		t.Fatal(err)
	}
	omit, err := Build("omit", Params{IDs: []sim.PartyID{5}, N: n, Halves: true})
	if err != nil {
		t.Fatal(err)
	}
	adv := &ComposeOmission{Compose{Strategies: []sim.Adversary{byz, omit}}}

	if got := adv.OmissionParties(); !reflect.DeepEqual(got, []sim.PartyID{5}) {
		t.Fatalf("OmissionParties = %v, want [5]", got)
	}
	// Filtering another party's outbox is a no-op; party 5 loses its upper
	// half.
	msgs := []sim.Message{{From: 5, To: 1}, {From: 5, To: 6}}
	if got := adv.FilterOutbox(1, 3, append([]sim.Message(nil), msgs...)); len(got) != 2 {
		t.Errorf("FilterOutbox for non-omission party dropped messages: %v", got)
	}
	if got := adv.FilterOutbox(1, 5, append([]sim.Message(nil), msgs...)); len(got) != 1 || got[0].To != 1 {
		t.Errorf("FilterOutbox(p5) = %v, want only the lower-half recipient", got)
	}

	inputs := []float64{0, 100, 50, 25, 75, 60, 0}
	machines := runRealAA(t, n, tc, inputs, realaa.Iterations(tc, 100, 1), adv)
	corrupt := corruptSet([]sim.PartyID{5, 6}) // omission party carries no guarantees
	if r := honestValueRange(machines, corrupt, len(machines[0].History())-1); r > 1 {
		t.Errorf("final honest range = %v, want <= 1", r)
	}
}
