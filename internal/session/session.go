// Package session is the serving layer: agreement as a service. A Daemon
// hosts many concurrent TreeAA sessions multiplexed over a single set of
// peer links — one duplex TCP connection per daemon pair, shared by every
// session — instead of the one-shot, dedicated-mesh execution of
// internal/transport. BKR-style ACS stacks amortize link cost exactly this
// way: the links and their authentication are per-deployment, the protocol
// instances are cheap tenants on top.
//
// # Architecture
//
//	client ──TCP──▶ server.go ──▶ Manager ──▶ shards (engines as state
//	                                 ▲            machines, stepped by the
//	                                 │ inbound    goroutine that fed them)
//	                                 │              ▼ outbound frames
//	                              mux.go ◀──── per-peer outbox, written where
//	                                 │         input ran dry; flusher behind
//	                           peer daemons
//
// Every frame on a peer link is a transport-framed wire session payload
// carrying its session id, so one link interleaves every session's rounds:
// wire.SessionRound for the data plane — everything a seat sends a peer in
// one round, with its end-of-round mark — and SessionOpen / SessionAbort /
// SessionDecide for the lifecycle. A lock-step round costs one frame per
// link and no goroutine hand-off: the link reader peeks the session id,
// queues the still-encoded frame on the owning shard (sessions hash to
// shards by id) and, unless somebody is draining that shard already, steps
// the engine itself — decode, barrier, machine step, the next round's frames
// staged in the per-peer outboxes. When its buffered input is used up it
// writes every outbox with one non-blocking write each, so all that one read
// brought in — often several sessions' rounds — shares the writes going out.
// Nothing on that path can wait for a socket: what a write could not place,
// and every link whose connection hides its descriptor, falls to the link's
// flusher. Besides the links' readers and flushers a daemon runs one
// goroutine, the manager's timekeeper: deadline eviction, the shards' sweep
// (barrier timeouts, pre-open and tombstone GC) and the turn of an engine
// that a terminal transition woke while nobody was draining its shard.
//
// An engine owns no protocol loop: it is an adapter over internal/driver,
// the same passive Round (lock step) and Event (Options.Async) state
// machines the mesh and overlay nodes adapt. The engine hands the driver the
// SessionRound frames its shard queued and the mux's outboxes as the place
// to stage its own, and keeps the watchdog deadline; the frame, mailboxes,
// accounting (counted at send, self-delivery included, the session envelope
// excluded), barriers and termination are the driver's, which is why each
// session's Result is byte-identical to sim.Run on the same spec. The mux's
// per-link FIFO lets a peer lead by at most one round, so the engine fixes
// the driver's window at 2 and anything outside fails the session; and
// because every seat is honest and on one schedule, the schedule's last,
// message-free round ends at its step rather than at a barrier. The origin
// daemon (where the session was submitted) assembles the Result from its own
// record plus each peer's SessionDecide.
//
// With Options.Async every message travels as a SessionRound of one and is
// delivered to an async.Pipeline on arrival, a seat broadcasts one empty
// done-marked SessionRound as its decision announcement, and the seat
// finishes once it has decided and heard done from every peer. There are no
// barriers and no round timeouts (RoundTimeout becomes an idle watchdog), and
// decided Results are judged by the paper's properties — validity and
// 1-agreement — rather than oracle byte-identity, because an asynchronous
// decision legitimately depends on delivery order.
package session

import (
	"fmt"
	"math"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Spec describes one session: everything a daemon needs to run its seat
// deterministically. It is what a client submits and what SessionOpen
// carries to the peers.
type Spec struct {
	Tree   string        // cli.ParseSpaceSpec spec: a tree spec ("path:16") or "graph:"-prefixed graph spec
	Seed   int64         // tree/graph-spec seed (random shapes)
	T      int           // corruption budget the machines tolerate
	Inputs string        // cli.ParseInputs spec; "" spreads inputs
	TTL    time.Duration // deadline from admission; 0 means server default
}

// State is a session's lifecycle position. Transitions are monotone:
// Pending → Running → exactly one of the terminal states.
type State int

const (
	StatePending State = iota // admitted, engine not yet stepping
	StateRunning
	StateDecided // terminal: Result assembled (origin) or seat decided (peer)
	StateFailed  // terminal: aborted (rejection, engine error, peer abort)
	StateExpired // terminal: deadline eviction
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool { return s >= StateDecided }

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDecided:
		return "decided"
	case StateFailed:
		return "failed"
	case StateExpired:
		return "expired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Outcome is a session's terminal report on its origin daemon.
type Outcome struct {
	SID   uint64
	State State
	Err   string // failure / expiry reason
	// Result is set for decided sessions only. On sync deployments it is
	// DeepEqual to sim.Run on the same spec; on async deployments Rounds is
	// the constant 1 and Outputs satisfy validity and 1-agreement, but are
	// not pinned to any reference schedule.
	Result *sim.Result
	// Latency is admission → terminal, the closed-loop service time the
	// bench reports percentiles of.
	Latency time.Duration
}

// parsedSpec is a validated Spec, resolved against the daemon's n.
type parsedSpec struct {
	spec      Spec
	space     *cli.Space // tree, or block graph ("graph:"-prefixed Spec.Tree)
	inputs    []tree.VertexID
	maxRounds int
	deadline  time.Duration // resolved TTL
}

// parseSpec validates a spec for an n-party deployment. Rejections here
// happen before admission, so a malformed spec never occupies a slot.
func parseSpec(spec Spec, n int, defaultTTL time.Duration) (parsedSpec, error) {
	if spec.TTL < 0 {
		return parsedSpec{}, fmt.Errorf("session: negative ttl %v", spec.TTL)
	}
	space, err := spaces.parse(spec.Tree, spec.Seed)
	if err != nil {
		return parsedSpec{}, fmt.Errorf("session: space spec: %w", err)
	}
	inputs, err := space.ParseInputs(spec.Inputs, n)
	if err != nil {
		return parsedSpec{}, fmt.Errorf("session: inputs: %w", err)
	}
	if spec.T < 0 || spec.T > math.MaxInt32 {
		return parsedSpec{}, fmt.Errorf("session: t = %d out of range", spec.T)
	}
	if spec.T > 0 && n <= 3*spec.T {
		return parsedSpec{}, fmt.Errorf("session: n = %d does not satisfy n > 3t for t = %d", n, spec.T)
	}
	ttl := spec.TTL
	if ttl == 0 {
		ttl = defaultTTL
	}
	return parsedSpec{
		spec:      spec,
		space:     space,
		inputs:    inputs,
		maxRounds: space.Rounds() + 2, // a ceiling over every t; the schedule itself follows spec.T
		deadline:  ttl,
	}, nil
}

// Oracle runs a spec through the sequential engine — the reference every
// served session's Result must DeepEqual. The smoke and bench drivers, the
// chaos soak and the tests all judge against it.
func Oracle(n int, spec Spec) (*sim.Result, error) {
	ps, err := parseSpec(spec, n, time.Hour)
	if err != nil {
		return nil, err
	}
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, _, err := ps.space.NewMachine(n, spec.T, sim.PartyID(i), ps.inputs[i])
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	return sim.Run(sim.Config{N: n, MaxCorrupt: spec.T, MaxRounds: ps.maxRounds}, machines)
}
