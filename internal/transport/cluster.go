package transport

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// LocalCluster executes machines under cfg as a real networked system: one
// Seat per party on 127.0.0.1 loopback ports, each in the role Seat.Role
// gives it — an honest party, an omission party (its machine under
// sim.Omit; a stopped one too), or the adversary host co-hosting the
// corrupted set. For any deterministic configuration it accepts, its Result
// — outputs, rounds, message and byte counts, trace — is byte-for-byte the
// Result of sim.Run on the same inputs; the equivalence tests in this
// package pin that against seeds and adversaries. Adaptive corruption
// (messages on the wire cannot be retracted) is refused; so is an adversary
// with no corrupted party to host it that would act.
func LocalCluster(cfg sim.Config, machines []sim.Machine, opts Options) (*sim.Result, error) {
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	seats := make([]Seat, cfg.N)
	for p := range seats {
		seats[p] = Seat{ID: sim.PartyID(p), Config: cfg, Machine: machines[p]}
	}
	placed, results, err := runLoopback(seats, opts)
	if err != nil {
		return nil, err
	}
	var (
		parties []*driver.Result
		host    *driver.Result
	)
	for i, s := range placed {
		switch s.role {
		case roleAdversary:
			host = &results[i].Result
		case roleParty, roleOmission:
			parties = append(parties, &results[i].Result)
		}
	}
	res, err := driver.Merge(cfg.Trace, placed[0].corrupted, parties, host)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return res, nil
}

// runLoopback starts one deployment's seats in this process, each on a
// loopback listener, and runs them to completion through RunAll. It returns
// the seats with their roles and, in the same order, their results — nil
// for a co-hosted seat, which its host runs.
func runLoopback(seats []Seat, opts Options) ([]seated, []*ProcessResult, error) {
	listeners, addrs, err := bindLoopback(len(seats))
	if err != nil {
		return nil, nil, err
	}
	defer func() { // what a refusal left unused: RunAll's stops closed the rest
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	session := NewSession()
	for i := range seats {
		seats[i].Addrs, seats[i].Session = addrs, session
	}
	placed, err := roles(seats, false)
	if err != nil {
		return nil, nil, err
	}
	runs := make([]func() (*ProcessResult, error), len(placed))
	stops := make([]func(), len(placed))
	for i, s := range placed {
		// Every listener is bound already: start cannot fail.
		runs[i], stops[i], _ = s.start(func(p sim.PartyID) (net.Listener, error) { return listeners[p], nil }, opts)
	}
	results, err := RunAll(runs, stops)
	return placed, results, err
}

// CheckPassive refuses cfg.Adversary if it would act — send or corrupt — in
// any round of cfg's budget when stepped dry, on empty views. A fabric with
// no seat to step the adversary on can run only a passive one, such as pure
// send-omission, which each omission seat applies itself.
func CheckPassive(cfg sim.Config) error {
	for r := 1; cfg.Adversary != nil && r <= cfg.MaxRounds; r++ {
		if msgs, more := cfg.Adversary.Step(r, nil, nil); len(msgs)+len(more) > 0 {
			return fmt.Errorf("transport: adversary with no initially corrupted parties acts "+
				"at round %d; a rushing observer needs a corrupted seat — use the in-process transport", r)
		}
	}
	return nil
}

// RunAll is the launch/collect loop of every in-process cluster
// (LocalCluster, AsyncLocalCluster, overlay.Cluster): it runs every seat
// concurrently and returns their results in seat order. As soon as one seat
// fails, every stop runs, so parties blocked on the failed peer's barrier
// return promptly instead of riding out RoundTimeout; the stops run again on
// return (they are idempotent teardowns), and every failure is joined into
// the returned error.
func RunAll[T any](runs []func() (T, error), stops []func()) ([]T, error) {
	abortAll := func() {
		for _, stop := range stops {
			stop()
		}
	}
	defer abortAll()
	type outcome struct {
		seat int
		res  T
		err  error
	}
	outcomes := make(chan outcome, len(runs))
	for i, run := range runs {
		go func() {
			res, err := run()
			outcomes <- outcome{seat: i, res: res, err: err}
		}()
	}
	results := make([]T, len(runs))
	var errs []error
	for range runs {
		out := <-outcomes
		results[out.seat] = out.res
		if out.err != nil {
			errs = append(errs, out.err)
			abortAll()
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return results, nil
}

// bindLoopback binds one loopback listener per party. Every listener is bound
// before any endpoint exists: addresses must be known before anyone dials,
// and a bind failure should abort before goroutines exist.
func bindLoopback(n int) ([]net.Listener, []string, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for p := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:p] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("transport: binding party %d: %w", p, err)
		}
		listeners[p] = ln
		addrs[p] = ln.Addr().String()
	}
	return listeners, addrs, nil
}

// NewSession draws a random session id; hellos carrying another session are
// rejected, so two clusters on one machine can never cross-connect even if
// ports are recycled between runs.
func NewSession() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere too; a fixed
		// session only weakens stray-connection detection, not correctness.
		return 0x7472656561610001
	}
	return binary.BigEndian.Uint64(b[:])
}
