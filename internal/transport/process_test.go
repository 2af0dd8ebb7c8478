package transport

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/async"
	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// TestRunProcessRefusals pins that every refusal of a mesh seat comes from
// the execution the seat carries (Seat.Role): a seat with no machine or two,
// a lock-step seat with no round budget, an event machine beside any faulty
// party — a Byzantine one or an omission one — an adversary that would act
// with no corrupted seat to host it, and a co-hosted party launched as a
// process of its own. Every case fails before anything listens: the
// addresses are not bindable.
func TestRunProcessRefusals(t *testing.T) {
	tr := tree.NewPath(8)
	const n = 4
	machine := buildMachines(t, tr, n, 1, spreadInputs(tr, n, 1))[0]
	event, err := async.NewPipeline(tr, n, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	silent, omit := &adversary.Silent{IDs: []sim.PartyID{3}}, &adversary.SendOmitter{IDs: []sim.PartyID{2}, N: n}
	const oneMachine, honestOnly = "want exactly one of Machine and Event", "event-driven seats run honest fleets only"
	seat := func(edit func(*Seat)) Seat {
		s := Seat{ID: 0, Addrs: []string{"!", "!", "!", "!"}, Config: sim.Config{N: n, MaxCorrupt: 1, MaxRounds: 5}}
		edit(&s)
		return s
	}
	for _, tc := range []struct {
		name string
		seat Seat
		want string
	}{
		{"no role", seat(func(s *Seat) {}), oneMachine},
		{"two roles", seat(func(s *Seat) { s.Machine, s.Event = machine, event }), oneMachine},
		{"machine and adversary", seat(func(s *Seat) { s.ID, s.Config.Adversary = 3, silent }), oneMachine},
		{"event machine with an adversary", seat(func(s *Seat) { s.Event, s.Config.Adversary = event, silent }), honestOnly},
		{"event machine beside an omission party", seat(func(s *Seat) { s.Event, s.Config.Adversary = event, omit }), honestOnly},
		{"lock-step seat without a round budget", seat(func(s *Seat) { s.Machine, s.Config.MaxRounds = machine, 0 }), "MaxRounds"},
		{"corrupted seat launched separately", seat(func(s *Seat) {
			s.Machine, s.ID, s.Config.MaxCorrupt = machine, 3, 2
			s.Config.Adversary = &adversary.Silent{IDs: []sim.PartyID{2, 3}}
		}), "co-hosted by the adversary host"},
		{"acting adversary with no corrupted seat", seat(func(s *Seat) {
			s.Machine, s.Config.Adversary = machine, &adversary.CrashAt{IDs: []sim.PartyID{3}, Rounds: []int{2}}
		}), "no initially corrupted parties"},
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

// runOmissionFleet runs one RunProcess seat per party the way cmd/node does:
// every party's seat carries the execution and the party's plain machine,
// and the parties whose Role is co-hosted get no process. The seats'
// results fold into a sim.Result the way LocalCluster folds them. The
// first failing seat cancels the rest.
func runOmissionFleet(cfg sim.Config, machines []sim.Machine) (*sim.Result, error) {
	lns, addrs, err := bindLoopback(cfg.N)
	if err != nil {
		return nil, err
	}
	for _, ln := range lns {
		ln.Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs []func() (*ProcessResult, error)
	var stops []func()
	host := -1
	for p, m := range machines {
		seat := Seat{Ctx: ctx, ID: sim.PartyID(p), Addrs: addrs, Session: 7, Config: cfg, Machine: m}
		switch role, err := seat.Role(); {
		case err != nil:
			return nil, err
		case role == roleCoHosted:
			continue
		case role == roleAdversary:
			host = len(runs)
		}
		runs = append(runs, func() (*ProcessResult, error) { return RunProcess(seat, Options{}) })
		stops = append(stops, cancel)
	}
	results, err := RunAll(runs, stops)
	if err != nil {
		return nil, err
	}
	var parties []*driver.Result
	var hostRes *driver.Result
	for i, r := range results {
		if i == host {
			hostRes = &r.Result
		} else {
			parties = append(parties, &r.Result)
		}
	}
	return driver.Merge(nil, cfg.Adversary.Initial(), parties, hostRes)
}
