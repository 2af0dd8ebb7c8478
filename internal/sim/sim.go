// Package sim provides the synchronous message-passing substrate the paper's
// protocols run on: n parties in a fully connected network of authenticated
// links, lock-step rounds (every message sent in round r is delivered at the
// start of round r+1), and a computationally unbounded, adaptive, rushing
// adversary that may corrupt up to t parties.
//
// Protocols are implemented as deterministic state machines (Machine). Two
// drivers execute them: Run steps every machine sequentially (deterministic,
// used by tests and benchmarks) and RunConcurrent gives each party its own
// goroutine with a round barrier (exercises real concurrency). Both produce
// identical executions for deterministic machines; an equivalence test in
// this package enforces that.
package sim

import (
	"errors"
	"fmt"
)

// PartyID identifies one of the n parties, in [0, n).
type PartyID int

// Broadcast is a destination wildcard: a message addressed to Broadcast is
// delivered to every party (including the sender).
const Broadcast PartyID = -1

// Message is a single authenticated point-to-point message. From is always
// set by the network, never by the sender, which models authenticated
// channels: the adversary cannot forge origins.
type Message struct {
	From    PartyID
	To      PartyID // the recipient, or Broadcast — when produced and when delivered alike
	Round   int     // round in which the message was sent
	Payload any
}

// Sizer lets payloads report their wire size for bandwidth accounting.
// Every in-tree protocol payload implements Sizer with its *exact*
// internal/wire encoded length (a cross-check test in internal/wire
// enforces Size() == len(wire.Encode(p)) for each type); payloads that do
// not implement Sizer are charged DefaultPayloadSize bytes.
type Sizer interface {
	Size() int
}

// DefaultPayloadSize is the byte charge for payloads without a Sizer.
const DefaultPayloadSize = 16

// PayloadSize returns the byte charge for a payload: its Sizer size, or
// DefaultPayloadSize. It is the accounting rule both drivers (in-process
// and TCP transport) share, so their Result.Bytes agree.
func PayloadSize(p any) int { return payloadSize(p) }

// UvarintLen returns the encoded length of x as a canonical LEB128
// varint — the arithmetic Sizer implementations need to mirror the
// internal/wire codec without importing it (wire imports the protocol
// packages, so the dependency must point this way).
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Machine is a deterministic, synchronous protocol state machine for one
// party. The driver calls Step once per round r = 1, 2, ...; inbox holds the
// messages sent to this party in round r-1 (sorted by sender). Step returns
// the messages this party sends in round r. The inbox is read-only as well
// as not to be retained: a round's broadcasts are delivered once, in one
// array every party's inbox shares, so a delivered message's To is this
// party or Broadcast. Machines must not share mutable state with other
// machines. The driver finishes with the returned slice before the next Step
// call, so a machine may reuse a single outbox buffer across rounds (message
// *payloads* are shared with recipients and must still be immutable once
// returned).
type Machine interface {
	// Step advances the machine to round r and returns its outgoing messages.
	Step(r int, inbox []Message) []Message
	// Output returns the machine's protocol output and whether it has
	// terminated. Once done, Step may still be called (returning nil is
	// expected) until the driver stops the execution.
	Output() (value any, done bool)
}

// Adversary controls the corrupted parties. It is rushing: Step is invoked
// each round after all honest parties have produced their round-r messages,
// and the adversary sees that traffic before choosing its own. It is
// adaptive: Step may name additional parties to corrupt, effective
// immediately (their just-produced round-r messages are retracted and
// replaced by the adversary's). Every party id an adversary names — in
// Initial, corruptMore, or a message's From/To — must lie in [0, N);
// out-of-range ids fail the execution.
type Adversary interface {
	// Initial returns the parties corrupted before round 1.
	Initial() []PartyID
	// Step returns the messages the corrupted parties send in round r,
	// together with any new corruptions. honestOut is the round-r traffic of
	// currently honest parties; corruptInbox holds the messages delivered
	// this round to each corrupted party. Both views are backed by buffers
	// the driver reuses across rounds — and a corrupted party's inbox, like
	// a Machine's, may be the array the honest parties are reading (To is
	// the party or Broadcast): an adversary may read them freely during the
	// call but must not retain or mutate them (copy message values out
	// instead, as the built-in strategies do).
	Step(r int, honestOut []Message, corruptInbox map[PartyID][]Message) (out []Message, corruptMore []PartyID)
}

// OutboxFilter is an optional Adversary extension modeling *send-omission*
// faults — the third failure regime in Fekete's analyses: an
// omission-faulty party follows the protocol (its machine keeps running and
// it never lies) but the adversary may drop any subset of its outgoing
// messages, every round, forever. Omission parties count toward
// MaxCorrupt; their outputs are recorded but carry no guarantees.
type OutboxFilter interface {
	Adversary
	// OmissionParties returns the parties subject to send filtering. They
	// are disjoint from Initial() (a Byzantine party subsumes omission).
	OmissionParties() []PartyID
	// FilterOutbox returns the subset of msgs (after broadcast expansion)
	// that party p actually delivers in round r.
	FilterOutbox(r int, p PartyID, msgs []Message) []Message
}

// Config parameterizes an execution.
type Config struct {
	// N is the number of parties. Required.
	N int
	// MaxCorrupt is the adversary budget t. Corrupting more parties than
	// this fails the execution.
	MaxCorrupt int
	// Adversary controls corrupted parties; nil means all parties honest.
	Adversary Adversary
	// MaxRounds stops a runaway execution; required (protocols under test
	// must know their round budgets).
	MaxRounds int
	// MaxMessagesPerParty caps how many point-to-point messages any single
	// party (honest or corrupted) may have delivered per round, after
	// broadcast expansion; excess messages are dropped deterministically
	// (keeping the earliest). 0 means no cap. It models a per-link rate
	// limit and stops a Byzantine flood from distorting accounting.
	MaxMessagesPerParty int
	// Tamper, when non-nil, is the engine's delivery seam: it observes
	// every expanded, stamped message immediately before it is placed in
	// its recipient's mailbox and may rewrite its payload (only the
	// returned message's Payload is honored — From, To and Round are fixed
	// by the network) or drop it by returning false. Dropped messages are
	// not counted in Result.Messages.
	//
	// The hook is a testing power that exceeds the paper's model: it can
	// corrupt traffic of honest senders, which authenticated channels
	// forbid. The property checker (internal/check) uses it for byte-level
	// payload mutation of corrupted senders' traffic (model-sound — a
	// Byzantine party may send any bytes) and, deliberately out of model,
	// for its known-bad validity-breaking adversary that exercises the
	// checker's shrinker. It is invoked from the single driver goroutine in
	// deterministic message order under both Run and RunConcurrent, so a
	// seeded stateful tamperer reproduces executions exactly. The TCP
	// transport has no such seam and rejects configs that set it.
	Tamper func(r int, m Message) (Message, bool)
	// Trace, when non-nil, receives one entry per round.
	Trace *Trace
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("sim: N = %d, want > 0", c.N)
	}
	if c.MaxRounds <= 0 {
		return fmt.Errorf("sim: MaxRounds = %d, want > 0", c.MaxRounds)
	}
	if c.MaxCorrupt < 0 || c.MaxCorrupt >= c.N {
		return fmt.Errorf("sim: MaxCorrupt = %d, want in [0, N)", c.MaxCorrupt)
	}
	return nil
}

// Result summarizes an execution.
type Result struct {
	// Rounds is the index of the last round the driver executed: the round
	// in which the last honest machine reported done, or MaxRounds when the
	// execution timed out. Every round up to and including it stepped the
	// honest machines, whether or not any message was sent — in particular
	// the final round, in which machines typically only consume their last
	// inboxes and terminate, is counted. TestRoundsCountsLastSteppedRound
	// pins these semantics.
	Rounds int
	// Messages is the total point-to-point message count after broadcast
	// expansion.
	Messages int
	// Bytes is the approximate total payload bytes.
	Bytes int
	// Outputs holds the output of every honest machine that terminated.
	Outputs map[PartyID]any
	// Corrupted is the final corruption set.
	Corrupted map[PartyID]bool
}

// Trace records per-round execution details for debugging and the example
// binaries.
type Trace struct {
	Rounds []TraceRound
}

// TraceRound is one round's record.
type TraceRound struct {
	Round    int
	Messages int
	Bytes    int
	// NewlyDone lists parties that terminated in this round.
	NewlyDone []PartyID
}

// Execution errors.
var (
	// ErrBudgetExceeded reports an adversary corrupting more than MaxCorrupt.
	ErrBudgetExceeded = errors.New("sim: adversary exceeded corruption budget")
	// ErrForgedSender reports the adversary sending from an honest party.
	ErrForgedSender = errors.New("sim: adversary forged an honest sender")
	// ErrNotDone reports honest machines still running at MaxRounds.
	ErrNotDone = errors.New("sim: honest machines not done within MaxRounds")
)

func payloadSize(p any) int {
	if s, ok := p.(Sizer); ok {
		return s.Size()
	}
	return DefaultPayloadSize
}
