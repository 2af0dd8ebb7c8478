package transport

import (
	"context"
	"errors"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"treeaa/internal/async"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// TestRunProcessRefusals pins where a seat is refused: a seat that carries
// no role or two is malformed for every fabric (Seat.Validate), and the
// role the mesh cannot host — an event machine in a deployment with an
// adversary — is refused by RunProcess itself. Every case fails before anything listens:
// the addresses are not bindable.
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

// TestProcessFleetUnderOmission runs a fleet of RunProcess seats the way
// cmd/node deploys one: each omission party — a stopped one too — is an
// honest Machine seat whose machine drops its own sends (sim.Omit), and the
// adversary host sits at the lowest Byzantine id. Outputs, rounds and the
// summed send counts must be sim.Run's.
func TestProcessFleetUnderOmission(t *testing.T) {
	const n, tc, seed = 7, 2, 1
	for _, spec := range []string{"splitvote+omit(halves=1)", "omit(drop=300)", "splitvote+stop(rounds=2)"} {
		_, cfg, machines := omissionRun(t, "path:24", spec, n, tc, seed, nil)
		want, err := sim.Run(cfg, machines)
		if err != nil {
			t.Fatal(err)
		}
		// The ports are reserved and released before the seats bind them, so
		// a seat's outgoing dial can take one first; that attempt is rerun.
		var got *sim.Result
		for attempt := 0; got == nil; attempt++ {
			_, cfg, machines = omissionRun(t, "path:24", spec, n, tc, seed, nil)
			got, err = runOmissionFleet(cfg, machines)
			if err != nil && (attempt == 2 || !errors.Is(err, syscall.EADDRINUSE)) {
				t.Fatalf("%s: %v", spec, err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: process fleet diverges\n got %+v\nwant %+v", spec, got, want)
		}
	}
}

// runOmissionFleet runs one RunProcess seat per party outside the Byzantine
// set, plus the adversary host, and folds their results into a sim.Result.
// The first failing seat cancels the rest.
func runOmissionFleet(cfg sim.Config, machines []sim.Machine) (*sim.Result, error) {
	n, filter := cfg.N, cfg.Adversary.(sim.OutboxFilter)
	byz := cfg.Adversary.Initial()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seats []Seat
	for p := sim.PartyID(0); int(p) < n; p++ {
		seat := Seat{Ctx: ctx, ID: p, N: n, Addrs: addrs, Session: 7, Corrupted: byz, MaxRounds: cfg.MaxRounds}
		switch {
		case slices.Contains(byz, p):
			if p != slices.Min(byz) {
				continue
			}
			seat.Adversary = cfg.Adversary
		case slices.Contains(filter.OmissionParties(), p):
			seat.Machine = sim.Omit(filter, p, n, machines[p])
		default:
			seat.Machine = machines[p]
		}
		seats = append(seats, seat)
	}
	results := make([]*ProcessResult, len(seats))
	errs := make([]error, len(seats))
	var wg sync.WaitGroup
	for i, seat := range seats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if results[i], errs[i] = RunProcess(seat, Options{}); errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res := &sim.Result{Outputs: map[sim.PartyID]any{}, Corrupted: map[sim.PartyID]bool{}}
	for i, r := range results {
		res.Rounds, res.Messages, res.Bytes = r.Rounds, res.Messages+r.Messages, res.Bytes+r.Bytes
		if seats[i].Machine != nil {
			res.Outputs[seats[i].ID] = r.Output
		}
	}
	for _, p := range byz {
		res.Corrupted[p] = true
	}
	return res, nil
}
