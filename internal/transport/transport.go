// Package transport runs the paper's protocol machines as a real networked
// system. The sim package defines what a round *is*; this package puts the
// messages on the wire: encoded with internal/wire and framed onto TCP
// sockets between endpoints. Every mesh execution is n Seats, started the
// same way whether all of them share one process (LocalCluster,
// AsyncLocalCluster) or each has its own (RunProcess, the cmd/node daemon);
// what a seat runs, and what the mesh refuses, Seat.Role decides from the
// execution alone. The contract is strict: for any configuration sim.Run and
// LocalCluster both accept, they produce byte-for-byte identical Results —
// the TCP transport is the engine's semantics made distributed, not a
// reinterpretation.
//
// The round loop and the event loop are not here, and neither is the frame a
// round travels in: runNode and runAsyncNode are adapters over
// internal/driver's Round and Event, which write and read one round frame
// per link per round — the wire.SessionRound the serving mux carries too —
// through driver.Framer and Apply. This package owns how frames travel — the
// stream framing and the one peer link every deployed fabric runs on (Mux:
// one duplex connection per pair of parties, its hello, generations and the
// lower-id redial, writes made where input runs dry), which the serving
// daemons of internal/session share — and, for the one-shot mesh, the barrier
// wait, the round / idle timers, the count-exchange resume on top of that
// link, the mirror frames that grant the rushing adversary its view, and the
// adversary host, which co-hosts the corrupted seats on one driver.Mailbox
// each.
package transport

import (
	"context"
	"fmt"
	"slices"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// Seat is one party's seat in a mesh execution: who it is, where every
// party listens, and the execution it belongs to. It carries no fact
// derived from that execution — who is corrupted, who hosts the adversary —
// so no two seats of one execution can disagree on them; Role derives them.
type Seat struct {
	// Ctx, when non-nil, cancels the seat: on Done the seat's connections
	// and listeners shut down, which unblocks barrier waits and read loops,
	// so a SIGINT'd daemon exits promptly without leaking goroutines.
	Ctx context.Context
	// ID is this seat's party; Addrs has one listen address per party id,
	// shared verbatim by every seat.
	ID    sim.PartyID
	Addrs []string
	// Session must be identical across all seats of one deployment;
	// DeriveSession computes one from the shared parameters, and anything
	// else is rejected at the handshake.
	Session uint64
	// Config is the execution — N, the fault budget, the round budget and
	// the adversary — identical on every seat. Its Trace is not read.
	Config sim.Config

	// Exactly one is set: the party's honest machine, lock-step or
	// event-driven. A corrupted party's seat carries one it never steps.
	Machine sim.Machine
	Event   driver.EventMachine
}

// The roles a seat plays on the mesh. The model's adversary is a single
// rushing, coordinated entity, so one host seat co-hosts the entire
// corrupted set, and honest lock-step seats mirror their traffic to it.
// No name has a space: cmd/node prints them into a line it parses with %s.
const (
	roleAdversary = "adversary" // the lowest corrupted id: the adversary host
	roleCoHosted  = "co-hosted" // any other corrupted id: the host runs it
	roleOmission  = "omission"  // its honest machine, dropping its own sends
	roleParty     = "party"     // an honest party
)

// seated is a seat with the role its execution gives it.
type seated struct {
	Seat
	role      string
	corrupted []sim.PartyID // ascending: the host's parties, the others' observer
	machine   sim.Machine   // what a lock-step party steps
}

// Role names what the seat runs in its execution — "adversary",
// "co-hosted" (nothing: the adversary host runs it), "omission" or "party"
// — or says why the mesh refuses the seat. It is the one place both are
// decided; RunProcess refuses a co-hosted seat besides.
func (s Seat) Role() (string, error) {
	placed, err := roles([]Seat{s}, false)
	if err != nil {
		return "", err
	}
	return placed[0].role, nil
}

// roles seats one deployment's seats — every seat of an in-process cluster,
// or a process's one — and holds every refusal of the mesh: a malformed
// seat; an event seat beside any faulty party (the rushing adversary and an
// omission filter both act on lock-step rounds); an adversary that would act
// with no corrupted party to host it; and, when the seat is a process of its
// own, a co-hosted party. The seats share one Config, and its fault sets are
// read once: CheckPassive dry-steps the adversary every seat shares.
func roles(seats []Seat, process bool) ([]seated, error) {
	if len(seats) == 0 {
		return nil, fmt.Errorf("transport: no seats")
	}
	cfg := seats[0].Config
	for _, s := range seats {
		switch {
		case cfg.N <= 0 || len(s.Addrs) != cfg.N:
			return nil, fmt.Errorf("transport: seat %d: %d addresses for n = %d", s.ID, len(s.Addrs), cfg.N)
		case s.ID < 0 || int(s.ID) >= cfg.N:
			return nil, fmt.Errorf("transport: seat %d: party id out of range [0, %d)", s.ID, cfg.N)
		case (s.Machine == nil) == (s.Event == nil):
			return nil, fmt.Errorf("transport: seat %d: want exactly one of Machine and Event", s.ID)
		case s.Machine != nil:
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
		}
	}
	corrupted, omission, err := sim.Faults(cfg)
	if err != nil {
		return nil, err
	}
	placed := make([]seated, len(seats))
	for i, s := range seats {
		p := seated{Seat: s, role: roleParty, corrupted: corrupted, machine: s.Machine}
		switch {
		case s.Event != nil && len(corrupted)+len(omission) > 0:
			return nil, fmt.Errorf("transport: event-driven seats run honest fleets only: the rushing "+
				"adversary and an omission filter act on lock-step rounds, and parties %v are faulty — drop the "+
				"adversary or run lock-step machines", slices.Concat(corrupted, omission))
		case len(corrupted) > 0 && s.ID == corrupted[0]:
			p.role = roleAdversary
		case slices.Contains(corrupted, s.ID) && process:
			return nil, fmt.Errorf("transport: corrupted party %d is co-hosted by the adversary host "+
				"(party %d); do not launch a separate process for it", s.ID, corrupted[0])
		case slices.Contains(corrupted, s.ID):
			p.role = roleCoHosted
		case slices.Contains(omission, s.ID):
			p.role, p.machine = roleOmission, sim.Omit(cfg.Adversary.(sim.OutboxFilter), s.ID, cfg.N, s.Machine)
		}
		placed[i] = p
	}
	// No host seat steps an adversary without corrupted parties.
	if len(corrupted) == 0 {
		if err := CheckPassive(cfg); err != nil {
			return nil, err
		}
	}
	return placed, nil
}
