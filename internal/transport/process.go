package transport

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// ProcessResult is one seat's share of the execution: its driver.Result —
// the adversary host's has no output, and an event seat's, which has no
// rounds, one tally of all its sends — and the messages delivered to an
// event seat's machine, self-deliveries included. Summing the tallies
// across seats gives the engine's Result.Messages and Result.Bytes.
type ProcessResult struct {
	driver.Result
	Deliveries int
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

// RunProcess starts this process's seat on its peers-file address — every
// corrupted party's, for the adversary host — and blocks until the
// deployment terminates or fails. Seat.Role decides what the seat runs and
// what is refused; a co-hosted party is refused too, as the host runs it.
func RunProcess(seat Seat, opts Options) (*ProcessResult, error) {
	placed, err := roles([]Seat{seat}, true)
	if err != nil {
		return nil, err
	}
	run, stop, err := placed[0].start(func(p sim.PartyID) (net.Listener, error) {
		ln, err := net.Listen("tcp", seat.Addrs[p])
		if err != nil {
			return nil, fmt.Errorf("transport: seat %d listening for party %d on %s: %w", seat.ID, p, seat.Addrs[p], err)
		}
		return ln, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	defer stop()
	defer watchCancel(seat.Ctx, stop)()
	return run()
}

// start binds the listeners of the seat's role through listen — its own
// party's, or every corrupted party's for the adversary host, each behind
// an AcceptHost — and returns the function that runs the seat to completion
// and the one that tears it down. A co-hosted seat runs nothing: its host
// runs it.
func (s seated) start(listen func(sim.PartyID) (net.Listener, error),
	opts Options) (run func() (*ProcessResult, error), stop func(), err error) {
	if s.role == roleCoHosted {
		return func() (*ProcessResult, error) { return nil, nil }, func() {}, nil
	}
	ids := []sim.PartyID{s.ID}
	if s.role == roleAdversary {
		ids = s.corrupted
	}
	ep := newEndpoint(ids, s.Config.N, s.Addrs, s.Session, opts)
	var hosts []*AcceptHost
	stop = func() {
		for _, h := range hosts {
			h.Close()
		}
		ep.shutdown(false)
	}
	for _, p := range ids {
		ln, err := listen(p)
		if err != nil {
			stop()
			return nil, nil, err
		}
		hosts = append(hosts, NewAcceptHost(ln, ep.links[p].Accept))
	}

	runner := runNode
	switch {
	case s.role == roleAdversary:
		runner = runAdversaryHost
	case s.Event != nil:
		runner = runAsyncNode
	}
	return func() (*ProcessResult, error) { return runner(s, ep) }, stop, nil
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
