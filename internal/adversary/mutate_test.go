package adversary

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// scripted corrupts parties 5 and 6 and sends the same messages every round.
type scripted []sim.Message

func (s scripted) Initial() []sim.PartyID { return []sim.PartyID{5, 6} }
func (s scripted) Step(int, []sim.Message, map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	return slices.Clone(s), nil
}

// mutating wraps scripted traffic, composed as the adversary language
// composes it, in a Mutate at rate.
func mutating(msgs []sim.Message, rate int) *Mutate {
	return &Mutate{OutboxFilter: &Compose{Strategies: []sim.Adversary{scripted(msgs)}}, N: 7, Rate: rate, Seed: 3}
}

// mutateTraffic is a round of gradecast traffic from parties 5 and 6 of 7:
// a broadcast send each, and an echo and a vote to every party.
func mutateTraffic() []sim.Message {
	var msgs []sim.Message
	for i, from := range []sim.PartyID{5, 6} {
		msgs = append(msgs, sim.Message{From: from, To: sim.Broadcast,
			Payload: &gradecast.SendMsg{Tag: "pf", Iter: 1, Val: float64(10*i) + 0.5}})
		for to := sim.PartyID(0); to < 7; to++ {
			vals := gradecast.Vec{{ID: 1, Val: float64(to)}, {ID: 4, Val: -7}}
			msgs = append(msgs,
				sim.Message{From: from, To: to, Payload: &gradecast.EchoMsg{Tag: "pf", Iter: 2, Vals: vals}},
				sim.Message{From: from, To: to, Payload: &gradecast.VoteMsg{Tag: "proj", Iter: 3, Vals: vals}})
		}
	}
	return msgs
}

// expanded is msgs with every broadcast expanded to n recipients.
func expanded(n int, msgs []sim.Message) []sim.Message {
	var out []sim.Message
	for _, m := range msgs {
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

// TestMutateRateZeroIsIdentity: at rate 0 the wrapper passes the inner
// adversary through untouched, its fault sets included.
func TestMutateRateZeroIsIdentity(t *testing.T) {
	msgs := mutateTraffic()
	a := mutating(msgs, 0)
	for r := 1; r <= 3; r++ {
		if got, _ := a.Step(r, nil, nil); !reflect.DeepEqual(got, msgs) {
			t.Fatalf("round %d: rate 0 sent %v, want %v", r, got, msgs)
		}
	}
	if got := a.Initial(); !reflect.DeepEqual(got, []sim.PartyID{5, 6}) || a.OmissionParties() != nil {
		t.Errorf("Initial = %v, OmissionParties = %v", got, a.OmissionParties())
	}
}

// TestMutateIgnoresOutboxOrder: each decision is keyed on the message, so
// the inner adversary's send order changes nothing but the output's order.
func TestMutateIgnoresOutboxOrder(t *testing.T) {
	msgs := mutateTraffic()
	rev := slices.Clone(msgs)
	slices.Reverse(rev)
	sent := func(out []sim.Message) []string {
		var s []string
		for _, m := range out {
			s = append(s, fmt.Sprintf("%d>%d %#v", m.From, m.To, m.Payload))
		}
		sort.Strings(s)
		return s
	}
	plain := sent(expanded(7, msgs))
	for r := 1; r <= 4; r++ {
		fwd, _ := mutating(msgs, 500).Step(r, nil, nil)
		bwd, _ := mutating(rev, 500).Step(r, nil, nil)
		if got, want := sent(bwd), sent(fwd); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: reversed outbox sent\n%v\nwant\n%v", r, got, want)
		}
		if got := sent(fwd); reflect.DeepEqual(got, plain) {
			t.Fatalf("round %d: rate 500 mutated nothing", r)
		}
	}
}

// TestMutateDropsUndecodableFlips: at rate 1000 every send has one bit of
// its encoding flipped; a flip the codec decodes is sent as the decoded
// payload, and one it rejects is dropped, never sent unchanged.
func TestMutateDropsUndecodableFlips(t *testing.T) {
	msgs := mutateTraffic()
	dropped, kept := 0, 0
	for r := 1; r <= 4; r++ {
		var want []sim.Message
		for _, m := range expanded(7, msgs) {
			b, err := wire.Encode(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(msgKey(3^0x6d757461, r, m, b)))
			rng.Intn(1000)
			b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
			p, err := wire.Decode(b)
			if err != nil {
				dropped++
				continue
			}
			kept++
			m.Payload = p
			want = append(want, m)
		}
		if got, _ := mutating(msgs, 1000).Step(r, nil, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sent %v, want %v", r, got, want)
		}
	}
	if dropped == 0 || kept == 0 {
		t.Fatalf("%d flips dropped, %d sent: want both", dropped, kept)
	}
}
