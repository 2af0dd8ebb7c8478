package overlay

import (
	"errors"
	"fmt"
	"net"
	"slices"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// errAdversary refuses every adversary but omission: a rushing observer must
// see every honest round-r message before choosing its own, and a tree would
// have to route all traffic through the observer's position.
var errAdversary = errors.New("overlay: a rushing adversary observes all honest traffic before sending; " +
	"only the full mesh grants that view — use the tcp transport or the in-process engine")

// Cluster executes machines over the communication tree: one TCP node per
// party on 127.0.0.1 loopback, connected along the Layout's edges instead
// of a full mesh. For any configuration it accepts, its Result — outputs,
// rounds, message and byte counts, trace — is byte-for-byte the Result of
// sim.Run on the same inputs; the equivalence tests pin that. Message and
// byte counts are logical (counted at the emitting party per recipient,
// exactly as the engine counts), independent of how many physical relay
// hops the overlay spent; the physical side lands in Options.Wire/Stats.
//
// An omission party (a stopped one too) is a node whose machine runs under
// sim.Omit, as on the mesh. Every other adversary is rejected
// (errAdversary): a Byzantine party, or one that would act without one.
func Cluster(cfg sim.Config, machines []sim.Machine, opts Options) (*sim.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	corrupted, omission, err := sim.Faults(cfg)
	if err != nil {
		return nil, err
	}
	// No node steps the adversary.
	if len(corrupted) > 0 || transport.CheckPassive(cfg) != nil {
		return nil, errAdversary
	}
	opts = opts.withDefaults()
	lay, err := NewLayout(cfg.N, opts.Branching)
	if err != nil {
		return nil, err
	}

	// Bind every interior party's listener first: leaves dial as soon as
	// they start, and a bind failure should abort before goroutines exist.
	// Leaves accept nothing, which is the whole point — only root and
	// sub-leaders pay a listen socket.
	addrs := make([]string, cfg.N)
	listeners := make(map[sim.PartyID]net.Listener, lay.Subleaders+1)
	for p := sim.PartyID(0); int(p) < cfg.N; p++ {
		if !lay.Interior(p) {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("overlay: binding party %d: %w", p, err)
		}
		listeners[p] = ln
		addrs[p] = ln.Addr().String()
	}
	session := transport.NewSession()

	// Build every node before any goroutine runs: the accept hosts hand
	// inbound hellos straight to their nodes, and with one core scheduling
	// hundreds of goroutines a leaf can easily dial before its parent's
	// main loop ever ran.
	runs := make([]func() (*driver.Result, error), cfg.N)
	stops := make([]func(), cfg.N)
	for p := sim.PartyID(0); int(p) < cfg.N; p++ {
		m := machines[p]
		if slices.Contains(omission, p) {
			m = sim.Omit(cfg.Adversary.(sim.OutboxFilter), p, cfg.N, m)
		}
		nd := newNode(p, lay, m, cfg.MaxRounds, session, addrs, opts)
		runs[p] = nd.run
		stops[p] = func() { nd.shutdown(false) }
		if ln, ok := listeners[p]; ok {
			host := transport.NewAcceptHost(ln, nd.accept)
			stops[p] = func() { host.Close(); nd.shutdown(false) }
		}
	}
	parties, err := transport.RunAll(runs, stops)
	if err != nil {
		return nil, err
	}
	res, err := driver.Merge(cfg.Trace, nil, parties, nil)
	if err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}
	return res, nil
}
