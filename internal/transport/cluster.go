package transport

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// LocalCluster executes machines under cfg as a real networked system: one
// TCP endpoint per honest party plus one adversary host co-hosting the
// corrupted set, all on 127.0.0.1 loopback ports. An omission party (a
// stopped one too) is an honest seat whose machine runs under sim.Omit. For
// any deterministic configuration it accepts, its Result — outputs, rounds,
// message and byte counts, trace — is byte-for-byte the Result of sim.Run on
// the same inputs; the equivalence tests in this package pin that against
// seeds and adversaries. Adaptive corruption (messages on the wire cannot be
// retracted) is refused; so is an adversary with no corrupted party to host
// it that would act.
func LocalCluster(cfg sim.Config, machines []sim.Machine, opts Options) (*sim.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	opts = opts.withDefaults()

	corrupted, omission, err := sim.Faults(cfg)
	if err != nil {
		return nil, err
	}
	// No host seat steps an adversary without corrupted parties.
	if len(corrupted) == 0 {
		if err := CheckPassive(cfg); err != nil {
			return nil, err
		}
	}
	if len(omission) > 0 {
		f := cfg.Adversary.(sim.OutboxFilter)
		machines = slices.Clone(machines)
		for _, p := range omission {
			machines[p] = sim.Omit(f, p, cfg.N, machines[p])
		}
	}
	observer := sim.PartyID(-1)
	if len(corrupted) > 0 {
		observer = corrupted[0]
	}

	listeners, addrs, err := bindLoopback(cfg.N)
	if err != nil {
		return nil, err
	}
	session := NewSession()

	var (
		runs  []func() (*driver.Result, error)
		stops []func()
	)
	for p := sim.PartyID(0); int(p) < cfg.N; p++ {
		if slices.Contains(corrupted, p) {
			continue
		}
		run, stop := honestSeat(nodeConfig{id: p, n: cfg.N, maxRounds: cfg.MaxRounds,
			observer: observer, machine: machines[p]}, listeners[p], addrs, session, opts)
		runs, stops = append(runs, run), append(stops, stop)
	}
	honest := len(runs)
	if len(corrupted) > 0 {
		hostLns := make([]net.Listener, len(corrupted))
		for i, c := range corrupted {
			hostLns[i] = listeners[c]
		}
		run, stop := hostSeat(hostConfig{corrupted: corrupted, n: cfg.N, maxRounds: cfg.MaxRounds,
			adv: cfg.Adversary}, hostLns, addrs, session, opts)
		runs, stops = append(runs, run), append(stops, stop)
	}
	results, err := RunAll(runs, stops)
	if err != nil {
		return nil, err
	}
	var host *driver.Result
	if len(corrupted) > 0 {
		host = results[honest]
	}
	res, err := driver.Merge(cfg.Trace, corrupted, results[:honest], host)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return res, nil
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

// honestSeat prepares one honest lock-step party behind an AcceptHost on its
// bound listener and returns the function that runs it to completion and the
// one that tears it down.
func honestSeat(nc nodeConfig, ln net.Listener, addrs []string, session uint64,
	opts Options) (run func() (*driver.Result, error), stop func()) {
	nc.ep = newEndpoint([]sim.PartyID{nc.id}, nc.n, addrs, session, opts)
	host := NewAcceptHost(ln, nc.ep.links[nc.id].Accept)
	return func() (*driver.Result, error) { return runNode(nc) },
		func() { host.Close(); nc.ep.shutdown(false) }
}

// hostSeat prepares the adversary host: one endpoint holding every corrupted
// party, each behind an AcceptHost on its own listener (lns[i] is
// hc.corrupted[i]'s).
func hostSeat(hc hostConfig, lns []net.Listener, addrs []string, session uint64,
	opts Options) (run func() (*driver.Result, error), stop func()) {
	hc.ep = newEndpoint(hc.corrupted, hc.n, addrs, session, opts)
	hosts := make([]*AcceptHost, len(lns))
	for i, ln := range lns {
		hosts[i] = NewAcceptHost(ln, hc.ep.links[hc.corrupted[i]].Accept)
	}
	return func() (*driver.Result, error) { return runAdversaryHost(hc) },
		func() {
			for _, h := range hosts {
				h.Close()
			}
			hc.ep.shutdown(false)
		}
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
