// Package transport runs the paper's protocol machines over interchangeable
// substrates. The sim package defines what a round *is*; this package
// decides where the messages travel: through the in-process zero-allocation
// engine (Mem), or encoded with internal/wire and framed onto real TCP
// sockets between endpoint processes (TCP, LocalCluster, and the cmd/node
// daemon). The contract is strict: for any configuration both substrates
// accept, they produce byte-for-byte identical Results — the TCP transport
// is the engine's semantics made distributed, not a reinterpretation.
//
// The round loop and the event loop are not here: runNode and runAsyncNode
// are adapters over internal/driver's Round and Event. This package owns
// what travels and how — frame types, the authenticated mesh, per-peer
// sender goroutines, eor frames as the barrier signal, the round / idle
// timers, reconnect-resend and crash-restart recovery — and the adversary
// host, which co-hosts the corrupted seats on one driver.Mailbox each.
package transport

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"treeaa/internal/sim"
)

// Transport executes machines under a sim configuration on some substrate.
type Transport interface {
	// Name is the identifier used by the -transport command-line flags.
	Name() string
	// Run executes the machines and reports the merged result. It follows
	// sim.Run's error contract (invalid configs, adversary overreach,
	// ErrNotDone at MaxRounds) plus substrate-specific failures.
	Run(cfg sim.Config, machines []sim.Machine) (*sim.Result, error)
}

// Mem is the in-process substrate: sim.Run's sequential lock-step driver,
// or the round-barrier goroutine driver when Concurrent is set. It adds
// nothing on top — the zero-allocation engine path is untouched.
type Mem struct {
	Concurrent bool
}

// Name implements Transport.
func (m Mem) Name() string {
	if m.Concurrent {
		return "mem-concurrent"
	}
	return "mem"
}

// Run implements Transport.
func (m Mem) Run(cfg sim.Config, machines []sim.Machine) (*sim.Result, error) {
	if m.Concurrent {
		return sim.RunConcurrent(cfg, machines)
	}
	return sim.Run(cfg, machines)
}

// TCP is the loopback-cluster substrate: every party a networked endpoint,
// every message a wire-encoded frame on a real socket.
type TCP struct {
	Opts Options
}

// Name implements Transport.
func (t TCP) Name() string { return "tcp" }

// Run implements Transport.
func (t TCP) Run(cfg sim.Config, machines []sim.Machine) (*sim.Result, error) {
	return LocalCluster(cfg, machines, t.Opts)
}

// registry holds externally provided substrates (internal/overlay's tree,
// for one), keyed by the spec's name — everything before the first ':'.
// Registration happens in package init functions, guarded anyway so a
// late Register during tests stays safe.
var (
	registryMu sync.Mutex
	registry   = make(map[string]func(spec string) (Transport, error))
)

// Register installs a transport factory under a spec name. New hands the
// factory the full flag value, so a registered substrate can carry
// parameters after a colon ("tree:16"). Registering a built-in name or the
// same name twice panics — both are wiring bugs, not runtime conditions.
func Register(name string, factory func(spec string) (Transport, error)) {
	registryMu.Lock()
	defer registryMu.Unlock()
	switch name {
	case "mem", "mem-concurrent", "tcp":
		panic(fmt.Sprintf("transport: Register(%q) shadows a built-in", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("transport: Register(%q) called twice", name))
	}
	registry[name] = factory
}

// Names lists the selectable transports for flag help text.
func Names() []string {
	out := []string{"mem", "mem-concurrent", "tcp"}
	registryMu.Lock()
	defer registryMu.Unlock()
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out[3:])
	return out
}

// New resolves a -transport flag value: a built-in name, or a registered
// substrate's spec (its name, optionally followed by ':' and parameters).
func New(name string) (Transport, error) {
	switch name {
	case "mem":
		return Mem{}, nil
	case "mem-concurrent":
		return Mem{Concurrent: true}, nil
	case "tcp":
		return TCP{}, nil
	}
	prefix := name
	if i := strings.IndexByte(name, ':'); i >= 0 {
		prefix = name[:i]
	}
	registryMu.Lock()
	factory := registry[prefix]
	registryMu.Unlock()
	if factory != nil {
		return factory(name)
	}
	return nil, fmt.Errorf("unknown transport %q (have %s)", name, strings.Join(Names(), ", "))
}
