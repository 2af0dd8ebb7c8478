package realaa

import (
	"maps"
	"math"
	"slices"
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
)

// TestMaskWords: suspicion bitmasks must stay float64-exact, so each mask
// word covers 52 parties and larger N splits across ceil(N/52) words.
func TestMaskWords(t *testing.T) {
	for _, tc := range []struct{ n, words int }{{10, 1}, {52, 1}, {53, 2}, {64, 2}, {104, 2}, {105, 3}} {
		if got := maskWords(tc.n); got != tc.words {
			t.Errorf("maskWords(%d) = %d, want %d", tc.n, got, tc.words)
		}
	}
	// N beyond one word is accepted and wired with per-word tags.
	m, err := NewMachine(Config{N: 64, T: 21, ID: 0, Tag: "real", Iterations: 1, StartRound: 1})
	if err != nil {
		t.Fatalf("N = 64 rejected: %v", err)
	}
	if want := []string{"real", "real/acc", "real/acc1"}; !slices.Equal(m.tags, want) {
		t.Errorf("tags = %v, want %v", m.tags, want)
	}
}

func TestSuspicionMaskEncoding(t *testing.T) {
	m, err := NewMachine(Config{N: 10, T: 3, ID: 0, Iterations: 1, StartRound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.suspicionMask(0); got != 0 {
		t.Errorf("fresh mask = %v, want 0", got)
	}
	m.suspected[3] = true
	m.suspected[7] = true
	want := float64((1 << 3) | (1 << 7))
	if got := m.suspicionMask(0); got != want {
		t.Errorf("mask = %v, want %v", got, want)
	}
}

// TestSuspicionMaskMultiWord: parties at or beyond index 52 land in the
// second word, not an overflowing first word.
func TestSuspicionMaskMultiWord(t *testing.T) {
	m, err := NewMachine(Config{N: 64, T: 21, ID: 0, Iterations: 1, StartRound: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.suspected[3] = true
	m.suspected[52] = true
	m.suspected[63] = true
	if got, want := m.suspicionMask(0), float64(uint64(1)<<3); got != want {
		t.Errorf("word 0 = %v, want %v", got, want)
	}
	if got, want := m.suspicionMask(1), float64(uint64(1)|uint64(1)<<11); got != want {
		t.Errorf("word 1 = %v, want %v", got, want)
	}
}

// maskForger sends malformed and forged suspicion masks: non-integer,
// negative, oversized, and consistent masks naming honest parties. None may
// convict an honest leader.
type maskForger struct {
	ids  []sim.PartyID
	n    int
	tag  string
	mode int
}

func (a *maskForger) Initial() []sim.PartyID { return a.ids }
func (a *maskForger) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if (r-1)%3 != 0 {
		return nil, nil
	}
	iter := (r-1)/3 + 1
	var mask float64
	switch a.mode {
	case 0:
		mask = 3.7 // non-integer
	case 1:
		mask = -8 // negative
	case 2:
		mask = math.Exp2(60) // oversized
	default:
		// Consistent mask naming every honest party (t accusers < t+1).
		corrupt := map[sim.PartyID]bool{}
		for _, id := range a.ids {
			corrupt[id] = true
		}
		var m uint64
		for l := 0; l < a.n; l++ {
			if !corrupt[sim.PartyID(l)] {
				m |= 1 << uint(l)
			}
		}
		mask = float64(m)
	}
	var msgs []sim.Message
	for _, id := range a.ids {
		msgs = append(msgs,
			sim.Message{From: id, To: sim.Broadcast, Payload: &gradecast.SendMsg{Tag: a.tag, Iter: iter, Val: 50}},
			sim.Message{From: id, To: sim.Broadcast, Payload: &gradecast.SendMsg{Tag: a.tag + "/acc", Iter: iter, Val: mask}},
		)
	}
	return msgs, nil
}

func TestForgedMasksNeverConvictHonest(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	for mode := 0; mode < 4; mode++ {
		adv := &maskForger{ids: []sim.PartyID{5, 6}, n: n, tag: "real", mode: mode}
		machines := runAccTest(t, n, tc, inputs, adv)
		for i := 0; i < 5; i++ {
			ign := machines[i].Ignored()
			for leader := sim.PartyID(0); leader < 5; leader++ {
				if ign[leader] {
					t.Errorf("mode %d: party %d convicted honest leader %d", mode, i, leader)
				}
			}
		}
		// AA still holds.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 5; i++ {
			v := machines[i].Value()
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi-lo > 1 || lo < 0 || hi > 100 {
			t.Errorf("mode %d: outputs [%v, %v] violate AA", mode, lo, hi)
		}
	}
}

func runAccTest(t *testing.T, n, tc int, inputs []float64, adv sim.Adversary) []*Machine {
	t.Helper()
	iters := Iterations(tc, 100, 1)
	machines := make([]sim.Machine, n)
	typed := make([]*Machine, n)
	for i := 0; i < n; i++ {
		m, err := NewMachine(Config{N: n, T: tc, ID: sim.PartyID(i), Tag: "real", Iterations: iters, StartRound: 1, Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
		typed[i] = m
	}
	if _, err := sim.Run(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: 3*iters + 2, Adversary: adv}, machines); err != nil {
		t.Fatal(err)
	}
	return typed
}

// TestAccSilenceConvicts: a Byzantine party that participates on the value
// instance but stays silent on the suspicion instance is graded 0 there and
// convicted within one iteration.
func TestAccSilenceConvicts(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 60, 40}
	adv := &valueOnlyAdversary{ids: []sim.PartyID{5, 6}, tag: "real"}
	machines := runAccTest(t, n, tc, inputs, adv)
	for i := 0; i < 5; i++ {
		ign := machines[i].Ignored()
		if !ign[5] || !ign[6] {
			t.Errorf("party %d did not convict acc-silent byzantines: %v", i, ign)
		}
	}
}

// TestTwoWordConvictions: with n = 60 the suspicion set spans two mask
// words. Acc-silent parties on both sides of the word boundary are convicted
// by every honest party and nobody else is — including when a third
// Byzantine party gradecasts a second word with all 52 bits set, 44 of them
// naming parties past N.
func TestTwoWordConvictions(t *testing.T) {
	n, tc := 60, 19
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i * 100 / (n - 1))
	}
	silent := []sim.PartyID{3, 51, 52, 59}
	adv := &wordForger{valueOnlyAdversary{ids: append([]sim.PartyID{30}, silent...), tag: "real"}}
	machines := runAccTest(t, n, tc, inputs, adv)
	want := map[sim.PartyID]bool{3: true, 51: true, 52: true, 59: true}
	for i, m := range machines {
		if want[sim.PartyID(i)] || i == 30 {
			continue
		}
		if got := m.Ignored(); !maps.Equal(got, want) {
			t.Errorf("party %d convicted %v, want %v", i, got, want)
		}
	}
}

// wordForger is a valueOnlyAdversary whose first party also gradecasts
// suspicion masks, consistently: nobody in word 0, everybody in word 1.
type wordForger struct{ valueOnlyAdversary }

func (a *wordForger) Step(r int, honestOut []sim.Message, inboxes map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	msgs, _ := a.valueOnlyAdversary.Step(r, honestOut, inboxes)
	if msgs != nil {
		iter := (r-1)/3 + 1
		msgs = append(msgs,
			sim.Message{From: a.ids[0], To: sim.Broadcast, Payload: &gradecast.SendMsg{Tag: a.tag + "/acc", Iter: iter, Val: 0}},
			sim.Message{From: a.ids[0], To: sim.Broadcast, Payload: &gradecast.SendMsg{Tag: a.tag + "/acc1", Iter: iter, Val: maskLimit - 1}})
	}
	return msgs, nil
}

// valueOnlyAdversary broadcasts honest-looking values but never a suspicion
// mask.
type valueOnlyAdversary struct {
	ids []sim.PartyID
	tag string
}

func (a *valueOnlyAdversary) Initial() []sim.PartyID { return a.ids }
func (a *valueOnlyAdversary) Step(r int, _ []sim.Message, _ map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	if (r-1)%3 != 0 {
		return nil, nil
	}
	iter := (r-1)/3 + 1
	var msgs []sim.Message
	for _, id := range a.ids {
		msgs = append(msgs, sim.Message{From: id, To: sim.Broadcast,
			Payload: &gradecast.SendMsg{Tag: a.tag, Iter: iter, Val: 50}})
	}
	return msgs, nil
}

// TestHonestSuspicionsConvictSplitters: after a SplitVote-style 1-vs-0
// split, every honest party ends with the splitter both suspected and
// excluded, and the Suspected/Ignored accessors agree.
func TestHonestSuspicionsConvictSplitters(t *testing.T) {
	n, tc := 7, 2
	inputs := []float64{0, 100, 50, 25, 75, 0, 0}
	adv := &equivocator{ids: []sim.PartyID{5, 6}, n: n, tag: "real", lo: -500, hi: 500}
	machines := runAccTest(t, n, tc, inputs, adv)
	for i := 0; i < 5; i++ {
		sus, ign := machines[i].Suspected(), machines[i].Ignored()
		for _, b := range []sim.PartyID{5, 6} {
			if !sus[b] {
				t.Errorf("party %d does not suspect equivocator %d", i, b)
			}
			if !ign[b] {
				t.Errorf("party %d did not convict equivocator %d", i, b)
			}
		}
	}
}
