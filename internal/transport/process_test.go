package transport

import (
	"strings"
	"testing"

	"treeaa/internal/async"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// TestRunProcessRefusals pins where a seat is refused: a seat that carries
// no role or two is malformed for every fabric (Seat.Validate), and the one
// role the mesh cannot host — an event machine in a deployment with an
// adversary — is refused by RunProcess itself. Every case fails before
// anything listens: the addresses are not bindable.
func TestRunProcessRefusals(t *testing.T) {
	tr := tree.NewPath(8)
	const n = 4
	machine := buildMachines(t, tr, n, 1, spreadInputs(tr, n, 1))[0]
	event, err := async.NewPipeline(tr, n, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	adv := splitVote(tr, n, 1)
	seat := func(edit func(*Seat)) Seat {
		s := Seat{ID: 0, N: n, Addrs: []string{"!", "!", "!", "!"}, MaxRounds: 5}
		edit(&s)
		return s
	}
	for _, tc := range []struct {
		name string
		seat Seat
		want string
	}{
		{"no role", seat(func(s *Seat) {}), "0 roles set"},
		{"two roles", seat(func(s *Seat) { s.Machine, s.Event = machine, event }), "2 roles set"},
		{"machine and adversary", seat(func(s *Seat) { s.Machine, s.Adversary = machine, adv }), "2 roles set"},
		{"event machine with an adversary", seat(func(s *Seat) {
			s.Event, s.Corrupted = event, []sim.PartyID{3}
		}), "event-driven seats run honest fleets only"},
		{"lock-step seat without a round budget", seat(func(s *Seat) { s.Machine, s.MaxRounds = machine, 0 }), "MaxRounds"},
		{"corrupted seat launched separately", seat(func(s *Seat) {
			s.Machine, s.ID, s.Corrupted = machine, 3, []sim.PartyID{2, 3}
		}), "co-hosted by the adversary host"},
		{"adversary host off the observer seat", seat(func(s *Seat) {
			s.Adversary, s.ID, s.Corrupted = adv, 3, []sim.PartyID{2, 3}
		}), "lowest corrupted id"},
	} {
		_, err := RunProcess(tc.seat, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
