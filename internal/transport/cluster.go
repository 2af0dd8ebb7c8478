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

	// stops tears every seat down: on exit, and as soon as one seat fails, so
	// parties blocked on the failed peer's barrier return promptly instead of
	// riding out RoundTimeout.
	var stops []func()
	abortAll := func() {
		for _, stop := range stops {
			stop()
		}
	}
	defer abortAll()
	nodeCh := make(chan nodeOutcome, cfg.N)
	launched := 0
	for p := sim.PartyID(0); int(p) < cfg.N; p++ {
		if isCorrupted[p] {
			continue
		}
		run, stop := honestSeat(nodeConfig{id: p, n: cfg.N, maxRounds: cfg.MaxRounds,
			observer: observer, machine: machines[p]}, listeners[p], addrs, session, opts)
		stops = append(stops, stop)
		go func() {
			res, err := run()
			nodeCh <- nodeOutcome{id: p, res: res, err: err}
		}()
		launched++
	}
	var hostCh chan hostOutcome
	if len(corrupted) > 0 {
		hostLns := make(map[sim.PartyID]net.Listener, len(corrupted))
		for _, c := range corrupted {
			hostLns[c] = listeners[c]
		}
		ep := newEndpoint(corrupted, cfg.N, addrs, session, hostLns, opts)
		stops = append(stops, func() { ep.shutdown(false) })
		hc := hostConfig{corrupted: corrupted, n: cfg.N, maxRounds: cfg.MaxRounds,
			adv: cfg.Adversary, ep: ep}
		hostCh = make(chan hostOutcome, 1)
		go func() {
			res, err := runAdversaryHost(hc)
			hostCh <- hostOutcome{res: res, err: err}
		}()
	}

	var (
		nodes []nodeOutcome
		errs  []error
	)
	for i := 0; i < launched; i++ {
		out := <-nodeCh
		nodes = append(nodes, out)
		if out.err != nil {
			errs = append(errs, out.err)
			abortAll()
		}
	}
	var host hostOutcome
	if hostCh != nil {
		host = <-hostCh
		if host.err != nil {
			errs = append(errs, host.err)
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	parties := make([]*driver.Result, len(nodes))
	for i, out := range nodes {
		parties[i] = out.res
	}
	res, err := driver.Merge(cfg.Trace, corrupted, parties, host.res)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return res, nil
}

type nodeOutcome struct {
	id  sim.PartyID
	res *driver.Result
	err error
}

type hostOutcome struct {
	res *driver.Result
	err error
}

// honestSeat prepares one honest party on its bound listener and returns the
// function that runs it to completion and the one that tears it down. A
// party the crash plan names runs under superviseNode, and its listener goes
// to an acceptHost so it outlives the first incarnation — peers redial the
// same address mid-run.
func honestSeat(nc nodeConfig, ln net.Listener, addrs []string, session uint64,
	opts Options) (run func() (*driver.Result, error), stop func()) {
	crashRound, supervised := opts.CrashPlan[nc.id]
	if !supervised {
		nc.ep = newEndpoint([]sim.PartyID{nc.id}, nc.n, addrs, session,
			map[sim.PartyID]net.Listener{nc.id: ln}, opts)
		return func() (*driver.Result, error) { return runNode(nc) },
			func() { nc.ep.shutdown(false) }
	}
	host := newAcceptHost(nc.id, ln)
	first := newEndpoint([]sim.PartyID{nc.id}, nc.n, addrs, session, nil, opts)
	host.swap(first)
	nc.ep, nc.crashRound = first, crashRound
	return func() (*driver.Result, error) { return superviseNode(nc, host, opts) },
		func() { host.close(); first.shutdown(false) }
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
