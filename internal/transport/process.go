package transport

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"sort"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// ProcessResult is one process's share of the execution.
type ProcessResult struct {
	// Output is set for honest seats only, DoneRound for lock-step ones.
	Output    any
	DoneRound int
	// Rounds is a lock-step execution's termination round (identical across
	// seats); Deliveries is what an event seat has instead — the messages
	// delivered to its machine, self-deliveries included.
	Rounds     int
	Deliveries int
	// Messages and Bytes count this seat's sends (all corrupted parties'
	// sends, for the host seat); summing across seats gives the engine's
	// Result.Messages and Result.Bytes.
	Messages int
	Bytes    int
}

// DeriveSession hashes deployment parameters into a session id, so
// processes launched with the same peers file and flags agree on it without
// coordination, and anything else is rejected at the handshake.
func DeriveSession(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// RunProcess executes this process's seat over the full mesh and blocks
// until the deployment terminates or fails. The role the mesh cannot host is
// an event machine in a deployment with an adversary (the rushing adversary
// is defined against lock-step rounds). An omission party is a Machine seat
// whose machine the caller wraps in sim.Omit.
func RunProcess(seat Seat, opts Options) (*ProcessResult, error) {
	if err := seat.Validate(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	corrupted := append([]sim.PartyID(nil), seat.Corrupted...)
	sort.Slice(corrupted, func(i, j int) bool { return corrupted[i] < corrupted[j] })
	observer := sim.PartyID(-1)
	if len(corrupted) > 0 {
		observer = corrupted[0]
	}
	opts = opts.withDefaults()

	if seat.Event != nil {
		if len(corrupted) > 0 {
			return nil, fmt.Errorf("transport: event-driven seats run honest fleets only: the rushing " +
				"adversary needs a global view between send and delivery, which is defined against " +
				"lock-step rounds — drop the adversary or run lock-step machines")
		}
		ln, err := listen(seat, seat.ID)
		if err != nil {
			return nil, err
		}
		run, stop := asyncSeat(seat.ID, seat.N, seat.Event, ln, seat.Addrs, seat.Session, opts)
		defer stop()
		defer watchCancel(seat.Ctx, stop)()
		ev, err := run()
		if err != nil {
			return nil, err
		}
		return &ProcessResult{Output: ev.Output(), Deliveries: ev.Deliveries(),
			Messages: ev.Tally().Msgs, Bytes: ev.Tally().Bytes}, nil
	}

	var (
		run  func() (*driver.Result, error)
		stop func()
	)
	if seat.Machine != nil {
		for _, c := range corrupted {
			if c == seat.ID {
				return nil, fmt.Errorf("transport: corrupted party %d is co-hosted by the adversary host "+
					"(party %d); do not launch a separate process for it", seat.ID, observer)
			}
		}
		ln, err := listen(seat, seat.ID)
		if err != nil {
			return nil, err
		}
		run, stop = honestSeat(nodeConfig{id: seat.ID, n: seat.N, maxRounds: seat.MaxRounds,
			observer: observer, machine: seat.Machine}, ln, seat.Addrs, seat.Session, opts)
	} else {
		if seat.ID != observer {
			return nil, fmt.Errorf("transport: the adversary host sits at the lowest corrupted id "+
				"(party %d), not at party %d", observer, seat.ID)
		}
		lns := make([]net.Listener, len(corrupted))
		for i, c := range corrupted {
			ln, err := listen(seat, c)
			if err != nil {
				for _, l := range lns[:i] {
					l.Close()
				}
				return nil, err
			}
			lns[i] = ln
		}
		run, stop = hostSeat(hostConfig{corrupted: corrupted, n: seat.N, maxRounds: seat.MaxRounds,
			adv: seat.Adversary}, lns, seat.Addrs, seat.Session, opts)
	}
	defer stop()
	defer watchCancel(seat.Ctx, stop)()
	res, err := run()
	if err != nil {
		return nil, err
	}
	// The host seat's result has no output.
	total := res.Total()
	return &ProcessResult{Output: res.Output, DoneRound: res.DoneRound,
		Rounds: res.TermRound, Messages: total.Msgs, Bytes: total.Bytes}, nil
}

// listen binds party p's peers-file address for this seat.
func listen(seat Seat, p sim.PartyID) (net.Listener, error) {
	ln, err := net.Listen("tcp", seat.Addrs[p])
	if err != nil {
		return nil, fmt.Errorf("transport: seat %d listening for party %d on %s: %w", seat.ID, p, seat.Addrs[p], err)
	}
	return ln, nil
}

// watchCancel runs stop when ctx is cancelled; the returned release func
// retires the watcher when the seat finishes first. A nil ctx is a no-op.
func watchCancel(ctx context.Context, stop func()) func() {
	if ctx == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			stop()
		case <-done:
		}
	}()
	return func() { close(done) }
}
