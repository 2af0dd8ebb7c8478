// Package transport runs the paper's protocol machines as a real networked
// system. The sim package defines what a round *is*; this package puts the
// messages on the wire: encoded with internal/wire and framed onto TCP
// sockets between endpoints — every party of a loopback fleet in one
// process (LocalCluster, AsyncLocalCluster) or one Seat per process
// (RunProcess, the cmd/node daemon). The contract is strict: for any
// configuration sim.Run and LocalCluster both accept, they produce
// byte-for-byte identical Results — the TCP transport is the engine's
// semantics made distributed, not a reinterpretation.
//
// The round loop and the event loop are not here, and neither is the frame a
// round travels in: runNode and runAsyncNode are adapters over
// internal/driver's Round and Event, which write and read one round frame
// per link per round — the wire.SessionRound the serving mux carries too —
// through driver.Framer and Apply. This package owns how frames travel — the
// stream framing and the one peer link outside the overlay (Mux: one duplex
// connection per pair of parties, its hello, generations and the lower-id
// redial, writes made where input runs dry), which the serving daemons of
// internal/session run on too — and, for the one-shot mesh, the barrier
// wait, the round / idle timers, the count-exchange resume on top of that
// link, the mirror frames that grant the rushing adversary its view, and the
// adversary host, which co-hosts the corrupted seats on one driver.Mailbox
// each.
package transport

import (
	"context"
	"fmt"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// Seat describes one process's seat in a one-shot multi-process deployment
// (the cmd/node daemon): who it is, and the one thing it runs. It is the
// input of RunProcess here (full mesh) and of overlay.RunProcess (tree
// fabric); each fabric refuses, in its RunProcess, the roles it cannot
// host.
type Seat struct {
	// Ctx, when non-nil, cancels the seat: on Done the seat's connections
	// and listeners shut down, which unblocks barrier waits and read loops,
	// so a SIGINT'd daemon exits promptly without leaking goroutines.
	Ctx context.Context
	// ID is this process's party.
	ID sim.PartyID
	// N is the total number of parties; Addrs has one listen address per
	// party id, shared verbatim by every process.
	N     int
	Addrs []string
	// Session must be identical across all processes of one deployment;
	// DeriveSession computes one from the shared parameters, and anything
	// else is rejected at the handshake.
	Session uint64
	// Corrupted is the deployment's statically corrupted set; empty means
	// all honest. Every seat carries it: honest lock-step seats mirror their
	// traffic to its lowest id (the observer), where the adversary host —
	// co-hosting the *entire* set, because the model's adversary is a single
	// rushing, coordinated entity — is seated.
	Corrupted []sim.PartyID
	// MaxRounds bounds a lock-step execution (Machine and Adversary seats).
	MaxRounds int

	// Exactly one role is set: an honest lock-step party, an honest
	// event-driven party, or the adversary host.
	Machine   sim.Machine
	Event     driver.EventMachine
	Adversary sim.Adversary
}

// Validate checks the seat's identity and that it carries exactly one role.
func (s Seat) Validate() error {
	if s.N <= 0 || len(s.Addrs) != s.N {
		return fmt.Errorf("seat: %d addresses for n = %d", len(s.Addrs), s.N)
	}
	if s.ID < 0 || int(s.ID) >= s.N {
		return fmt.Errorf("seat: party id %d out of range [0, %d)", s.ID, s.N)
	}
	roles := 0
	for _, set := range []bool{s.Machine != nil, s.Event != nil, s.Adversary != nil} {
		if set {
			roles++
		}
	}
	if roles != 1 {
		return fmt.Errorf("seat %d: %d roles set, want exactly one of Machine, Event, Adversary", s.ID, roles)
	}
	if s.Event == nil && s.MaxRounds <= 0 {
		return fmt.Errorf("seat %d: MaxRounds = %d, want > 0", s.ID, s.MaxRounds)
	}
	for _, c := range s.Corrupted {
		if c < 0 || int(c) >= s.N {
			return fmt.Errorf("seat %d: corrupted party %d out of range [0, %d)", s.ID, c, s.N)
		}
	}
	return nil
}
