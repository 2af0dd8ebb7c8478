// Package driver holds the two passive protocol drivers every networked
// runtime of this repo is an adapter over.
//
// Round runs one party of the paper's lock-step model: file what arrives,
// step when the round's barrier is complete, emit what the machine sends.
// Event runs one party of the asynchronous model: deliver an arrival, emit,
// decide. Neither owns a goroutine, a socket or a timer — adapters
// (transport's mesh node, overlay's tree node, session's engine) feed them
// arrivals and receive sends through a Sink, and keep only what is theirs:
// the link, the barrier wait, timers, replay and crash injection. On a full
// mesh the frame is the driver's too (frame.go): Framer is the Sink that
// writes a round as one wire.SessionRound per link and Apply streams one
// back in; the overlay, a relay tree, keeps a Sink of its own. sim.Run and
// async.Run remain the reference oracles the adapters' results are compared
// against.
package driver

import (
	"fmt"

	"treeaa/internal/sim"
)

// Tally counts protocol sends the way sim.Run does: per recipient, at send,
// self-delivery included, sized by sim.PayloadSize (the leaf payload's
// canonical encoding — envelopes are transport overhead, not protocol cost).
type Tally struct{ Msgs, Bytes int }

func (t *Tally) add(o Tally) {
	t.Msgs += o.Msgs
	t.Bytes += o.Bytes
}

// Span expands a send's recipient into the inclusive party range it covers.
func Span(n int, to sim.PartyID) (first, last sim.PartyID) {
	if to == sim.Broadcast {
		return 0, sim.PartyID(n - 1)
	}
	return to, to
}

// Charge range-checks one send's recipient against an n-party run, counts
// the payload once per recipient, and returns the recipient span.
func (t *Tally) Charge(n int, to sim.PartyID, payload any) (first, last sim.PartyID, err error) {
	if to != sim.Broadcast && (to < 0 || int(to) >= n) {
		return 0, 0, fmt.Errorf("recipient %d out of range [0, %d)", to, n)
	}
	first, last = Span(n, to)
	copies := int(last-first) + 1
	t.Msgs += copies
	t.Bytes += copies * sim.PayloadSize(payload)
	return first, last, nil
}

// slot is one round of a Mailbox. Slots are allocated once and len-reset
// when their round retires, the arena discipline of internal/sim's engine.
type slot struct {
	byParty [][]sim.Message // index: sender; emission order within a sender
	eorSeen []bool
	eors    int // senders whose end-of-round mark arrived
	dones   int // of those, how many reported done
}

// Mailbox is a per-round message store: a deque of recycled slots, one per
// live round, keyed by *sending* round like sim.Message.Round — a message
// filed under round r is consumed by Step(r+1). Rounds below the lowest
// live one have been consumed; with a non-zero window, rounds at or above
// base+window are refused, which is how an adapter whose substrate bounds
// the lead of any peer turns a violation into a loud failure.
type Mailbox struct {
	n, window int
	base      int    // lowest live round
	slots     []slot // slots[i] is round base+i for i < live; the rest are spares
	live      int
}

// NewMailbox returns an empty mailbox for n parties whose lowest live round
// is 1. window bounds how many rounds, counted from the lowest live one, may
// hold traffic at once; 0 means unbounded.
func NewMailbox(n, window int) *Mailbox {
	return &Mailbox{n: n, window: window, base: 1}
}

func (b *Mailbox) slot(round int) (*slot, error) {
	if round < b.base || (b.window > 0 && round >= b.base+b.window) {
		if b.window > 0 {
			return nil, fmt.Errorf("outside window [%d, %d]", b.base, b.base+b.window-1)
		}
		return nil, fmt.Errorf("below the live rounds [%d, ...)", b.base)
	}
	for round-b.base >= b.live {
		if b.live == len(b.slots) {
			b.slots = append(b.slots, slot{
				byParty: make([][]sim.Message, b.n),
				eorSeen: make([]bool, b.n),
			})
		}
		b.live++
	}
	return &b.slots[round-b.base], nil
}

// File stores one message under its sending round and sender.
func (b *Mailbox) File(m sim.Message) error {
	sl, err := b.slot(m.Round)
	if err != nil {
		return fmt.Errorf("round %d message from party %d %w", m.Round, m.From, err)
	}
	sl.byParty[m.From] = append(sl.byParty[m.From], m)
	return nil
}

// EOR records a sender's end-of-round mark. A second mark for the same
// (round, sender) pair means a confused or Byzantine-framing peer.
func (b *Mailbox) EOR(round int, from sim.PartyID, done bool) error {
	sl, err := b.slot(round)
	if err != nil {
		return fmt.Errorf("eor(%d) from party %d %w", round, from, err)
	}
	if sl.eorSeen[from] {
		return fmt.Errorf("duplicate eor(%d) from party %d", round, from)
	}
	sl.eorSeen[from] = true
	sl.eors++
	if done {
		sl.dones++
	}
	return nil
}

// Barrier returns how many end-of-round marks round holds and how many of
// them reported done.
func (b *Mailbox) Barrier(round int) (eors, dones int) {
	if i := round - b.base; i >= 0 && i < b.live {
		return b.slots[i].eors, b.slots[i].dones
	}
	return 0, 0
}

// HasEOR reports whether from's end-of-round mark for round has arrived.
func (b *Mailbox) HasEOR(round int, from sim.PartyID) bool {
	i := round - b.base
	return i >= 0 && i < b.live && b.slots[i].eorSeen[from]
}

// Inbox appends round's messages to dst in ascending sender order, each
// sender's messages in emission order — the delivery order sim's counting
// sort produces, reconstructed from the per-sender FIFO streams.
func (b *Mailbox) Inbox(round int, dst []sim.Message) []sim.Message {
	if i := round - b.base; i >= 0 && i < b.live {
		for _, ms := range b.slots[i].byParty {
			dst = append(dst, ms...)
		}
	}
	return dst
}

// Retire releases every round up to and including round; their slots are
// reset and kept as spares.
func (b *Mailbox) Retire(round int) {
	for ; b.base <= round; b.base++ {
		if b.live == 0 {
			continue
		}
		sl := b.slots[0]
		for p := range sl.byParty {
			sl.byParty[p] = sl.byParty[p][:0]
		}
		clear(sl.eorSeen)
		sl.eors, sl.dones = 0, 0
		copy(b.slots, b.slots[1:])
		b.slots[len(b.slots)-1] = sl
		b.live--
	}
}
