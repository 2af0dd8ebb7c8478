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

// ProcessConfig describes one process's seat in a multi-process deployment
// (the cmd/node daemon). Unlike LocalCluster, which owns every seat,
// RunProcess runs exactly one: an honest party stepping its machine, or the
// adversary host seat, which co-hosts the *entire* corrupted set — the
// model's adversary is a single rushing, coordinated entity, so its parties
// cannot be split across processes.
type ProcessConfig struct {
	// ID is this process's party. An honest id runs Machine; the lowest
	// corrupted id (the observer) runs the adversary host; any other
	// corrupted id is an error — that seat lives inside the host process.
	ID sim.PartyID
	// N is the total number of parties; Addrs has one listen address per
	// party id, shared verbatim by every process.
	N     int
	Addrs []string
	// Corrupted is the statically corrupted set; empty means all honest.
	Corrupted []sim.PartyID
	// Adversary drives the corrupted set; required iff ID is the observer.
	Adversary sim.Adversary
	// Machine is the honest party's protocol machine; required iff ID is
	// honest.
	Machine   sim.Machine
	MaxRounds int
	// Session must be identical across all processes of one deployment;
	// DeriveSession computes one from the shared parameters.
	Session uint64
	Opts    Options
	// Ctx, when non-nil, cancels the seat: on Done the endpoint shuts down,
	// which unblocks the round loop's barrier wait and closes the accept and
	// read loops, so a SIGINT'd daemon exits promptly without leaking
	// goroutines. In-flight frames already queued to peers are flushed by
	// the normal shutdown path.
	Ctx context.Context
}

// ProcessResult is one process's share of the execution.
type ProcessResult struct {
	// Output and DoneRound are set for honest seats only.
	Output    any
	DoneRound int
	// Rounds is the execution's termination round (identical across seats).
	Rounds int
	// Messages and Bytes count this seat's sends (all corrupted parties'
	// sends, for the host seat); summing across seats gives the engine's
	// Result.Messages and Result.Bytes.
	Messages int
	Bytes    int
}

// NewProcessResult reports one seat's driver result (the host seat's has no
// output) in the exported per-process form.
func NewProcessResult(res *driver.Result) *ProcessResult {
	total := res.Total()
	return &ProcessResult{Output: res.Output, DoneRound: res.DoneRound,
		Rounds: res.TermRound, Messages: total.Msgs, Bytes: total.Bytes}
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

// RunProcess executes this process's seat and blocks until the deployment
// terminates or fails.
func RunProcess(cfg ProcessConfig) (*ProcessResult, error) {
	if cfg.N <= 0 || len(cfg.Addrs) != cfg.N {
		return nil, fmt.Errorf("transport: %d addresses for n = %d", len(cfg.Addrs), cfg.N)
	}
	if cfg.MaxRounds <= 0 {
		return nil, fmt.Errorf("transport: MaxRounds = %d, want > 0", cfg.MaxRounds)
	}
	if cfg.ID < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("transport: party id %d out of range [0, %d)", cfg.ID, cfg.N)
	}
	corrupted := append([]sim.PartyID(nil), cfg.Corrupted...)
	sort.Slice(corrupted, func(i, j int) bool { return corrupted[i] < corrupted[j] })
	isCorrupted := make(map[sim.PartyID]bool, len(corrupted))
	for _, c := range corrupted {
		if c < 0 || int(c) >= cfg.N {
			return nil, fmt.Errorf("transport: corrupted party %d out of range [0, %d)", c, cfg.N)
		}
		isCorrupted[c] = true
	}
	observer := sim.PartyID(-1)
	if len(corrupted) > 0 {
		observer = corrupted[0]
	}

	if !isCorrupted[cfg.ID] {
		if cfg.Machine == nil {
			return nil, fmt.Errorf("transport: honest party %d needs a machine", cfg.ID)
		}
		opts := cfg.Opts.withDefaults()
		ln, err := net.Listen("tcp", cfg.Addrs[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("transport: party %d listening on %s: %w", cfg.ID, cfg.Addrs[cfg.ID], err)
		}
		// A crash plan naming this seat restarts it within the process: the
		// seat dies and rejoins without giving up its listen address (real
		// deployments would respawn the binary; the supervisor emulates that,
		// keeping the peers-file address stable).
		if _, supervised := opts.CrashPlan[cfg.ID]; supervised && opts.Restart == nil {
			ln.Close()
			return nil, fmt.Errorf("transport: crash plan requires Options.Restart to rebuild machines")
		}
		run, stop := honestSeat(nodeConfig{id: cfg.ID, n: cfg.N, maxRounds: cfg.MaxRounds,
			observer: observer, machine: cfg.Machine}, ln, cfg.Addrs, cfg.Session, opts)
		defer stop()
		defer WatchCancel(cfg.Ctx, stop)()
		res, err := run()
		if err != nil {
			return nil, err
		}
		return NewProcessResult(res), nil
	}

	if cfg.ID != observer {
		return nil, fmt.Errorf("transport: corrupted party %d is co-hosted by the adversary host "+
			"(party %d); do not launch a separate process for it", cfg.ID, observer)
	}
	if cfg.Adversary == nil {
		return nil, fmt.Errorf("transport: adversary host seat %d needs an adversary", cfg.ID)
	}
	listeners := make(map[sim.PartyID]net.Listener, len(corrupted))
	for _, c := range corrupted {
		ln, err := net.Listen("tcp", cfg.Addrs[c])
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("transport: adversary host listening for party %d on %s: %w", c, cfg.Addrs[c], err)
		}
		listeners[c] = ln
	}
	ep := newEndpoint(corrupted, cfg.N, cfg.Addrs, cfg.Session, listeners, cfg.Opts)
	defer ep.shutdown(false)
	defer WatchCancel(cfg.Ctx, func() { ep.shutdown(false) })()
	res, err := runAdversaryHost(hostConfig{corrupted: corrupted, n: cfg.N,
		maxRounds: cfg.MaxRounds, adv: cfg.Adversary, ep: ep})
	if err != nil {
		return nil, err
	}
	return NewProcessResult(res), nil
}

// WatchCancel runs stop when ctx is cancelled; the returned release func
// retires the watcher when the seat finishes first. A nil ctx is a no-op.
func WatchCancel(ctx context.Context, stop func()) func() {
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
