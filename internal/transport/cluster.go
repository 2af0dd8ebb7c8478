package transport

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// LocalCluster executes machines under cfg as a real networked system: one
// TCP endpoint per honest party plus one adversary host co-hosting the
// corrupted set, all on 127.0.0.1 loopback ports. For any deterministic
// configuration it accepts, its Result — outputs, rounds, message and byte
// counts, trace — is byte-for-byte the Result of sim.Run on the same
// inputs; the equivalence test in this package pins that against seeds and
// adversaries. Three engine features cannot be distributed and are rejected
// up front with an explanation: adaptive corruption (messages on the wire
// cannot be retracted), omission filtering and per-party rate limits (both
// require a global arbiter between send and delivery).
func LocalCluster(cfg sim.Config, machines []sim.Machine, opts Options) (*sim.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	if cfg.MaxMessagesPerParty != 0 {
		return nil, fmt.Errorf("transport: MaxMessagesPerParty requires a global rate arbiter; " +
			"the tcp transport has none — use the in-process transport")
	}
	if _, ok := cfg.Adversary.(sim.OutboxFilter); ok {
		return nil, fmt.Errorf("transport: omission filtering intercepts sends after expansion; " +
			"the tcp transport cannot — use the in-process transport")
	}
	if cfg.Tamper != nil {
		return nil, fmt.Errorf("transport: the delivery-seam tamper hook requires a global arbiter " +
			"between send and delivery; the tcp transport has none — use the in-process transport")
	}
	opts = opts.withDefaults()

	corrupted, err := initialCorruptions(cfg)
	if err != nil {
		return nil, err
	}
	isCorrupted := make(map[sim.PartyID]bool, len(corrupted))
	for _, c := range corrupted {
		isCorrupted[c] = true
	}
	for p, r := range opts.CrashPlan {
		if p < 0 || int(p) >= cfg.N || isCorrupted[p] {
			return nil, fmt.Errorf("transport: crash plan names party %d, which is not an honest party", p)
		}
		if r <= 0 {
			return nil, fmt.Errorf("transport: crash plan round %d for party %d, want > 0", r, p)
		}
		if opts.Restart == nil {
			return nil, fmt.Errorf("transport: crash plan requires Options.Restart to rebuild machines")
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
		if isCorrupted[p] {
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
// one that tears it down. A party the crash plan names dies in that round
// and superviseNode reseats its next incarnation at the same address.
func honestSeat(nc nodeConfig, ln net.Listener, addrs []string, session uint64,
	opts Options) (run func() (*driver.Result, error), stop func()) {
	first := newEndpoint([]sim.PartyID{nc.id}, nc.n, addrs, session, opts)
	host := NewAcceptHost(ln, first.accept(nc.id))
	nc.ep, nc.crashRound = first, opts.CrashPlan[nc.id]
	return func() (*driver.Result, error) { return superviseNode(nc, host, opts) },
		func() { host.Close(); first.shutdown(false) }
}

// hostSeat prepares the adversary host: one endpoint holding every corrupted
// party, each behind an AcceptHost on its own listener (lns[i] is
// hc.corrupted[i]'s).
func hostSeat(hc hostConfig, lns []net.Listener, addrs []string, session uint64,
	opts Options) (run func() (*driver.Result, error), stop func()) {
	hc.ep = newEndpoint(hc.corrupted, hc.n, addrs, session, opts)
	hosts := make([]*AcceptHost, len(lns))
	for i, ln := range lns {
		hosts[i] = NewAcceptHost(ln, hc.ep.accept(hc.corrupted[i]))
	}
	return func() (*driver.Result, error) { return runAdversaryHost(hc) },
		func() {
			for _, h := range hosts {
				h.Close()
			}
			hc.ep.shutdown(false)
		}
}

// initialCorruptions validates and normalizes the adversary's initial set:
// ascending, deduplicated (Compose repeats its strategies' shared ids, just
// as the engine's corruption map absorbs duplicates), within budget.
func initialCorruptions(cfg sim.Config) ([]sim.PartyID, error) {
	if cfg.Adversary == nil {
		return nil, nil
	}
	seen := make(map[sim.PartyID]bool)
	var out []sim.PartyID
	for _, p := range cfg.Adversary.Initial() {
		if p < 0 || int(p) >= cfg.N {
			return nil, fmt.Errorf("sim: corrupted party %d out of range [0, %d)", p, cfg.N)
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	if len(out) > cfg.MaxCorrupt {
		return nil, fmt.Errorf("%w: %d initial corruptions, budget %d",
			sim.ErrBudgetExceeded, len(out), cfg.MaxCorrupt)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("transport: adversary with no initially corrupted parties; " +
			"a rushing observer needs a corrupted seat — use the in-process transport or Adversary = nil")
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
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
