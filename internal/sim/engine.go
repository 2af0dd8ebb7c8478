package sim

import "fmt"

// engine owns the reusable buffers of the round loop. A stamped broadcast
// is stored once, in a per-round lane every party's inbox shares; the
// per-party mailboxes hold unicasts only. Every slice is allocated once per
// execution and len-reset between rounds, so a steady round (no newly
// terminated parties, no trace) performs no heap allocations of its own:
// lanes, mailboxes, merge buffers, outbox scratch, rate-limit counters and
// the counting-sort scratch all retain their capacity across rounds.
type engine struct {
	n      int
	limit  int                                // Config.MaxMessagesPerParty; 0 = no cap
	tamper func(int, Message) (Message, bool) // Config.Tamper

	// lane and cur hold the traffic delivered this round (sent last round):
	// the broadcasts, To still Broadcast, and each party's unicasts.
	// nextLane and next collect what is sent this round; rotate swaps them.
	lane, nextLane []Message
	cur, next      [][]Message
	// inboxes[p] is what party p reads this round: the lane itself when p
	// has no unicast mail, else the lane merged with cur[p] into merged[p].
	inboxes, merged [][]Message
	// raw holds each honest party's unexpanded outbox for the current
	// round, indexed by party (entries for corrupted parties are stale and
	// never read).
	raw [][]Message

	honest    []PartyID // current honest parties, ascending
	honestOut []Message // stamped honest traffic as sent: the adversary's view
	sent      []int     // per-party delivered-message counts for the rate limit
	direct    []bool    // sender has unicast mail out this round
	counts    []int     // counting-sort histogram scratch
	sortBuf   []Message // counting-sort output scratch

	msgs, bytes int // delivered this round, after broadcast expansion

	corrupted []bool // mirror of the Result.Corrupted map for hot-path checks
	omission  []bool // omission-faulty parties (OutboxFilter)
}

func newEngine(cfg Config) *engine {
	n := cfg.N
	return &engine{
		n:       n,
		limit:   cfg.MaxMessagesPerParty,
		tamper:  cfg.Tamper,
		cur:     make([][]Message, n),
		next:    make([][]Message, n),
		inboxes: make([][]Message, n),
		merged:  make([][]Message, n),
		raw:     make([][]Message, n),

		honest:    make([]PartyID, 0, n),
		sent:      make([]int, n),
		direct:    make([]bool, n),
		counts:    make([]int, n),
		corrupted: make([]bool, n),
		omission:  make([]bool, n),
	}
}

// checkParty validates a party id named by the adversary (a corruption
// target or a message address).
func (e *engine) checkParty(p PartyID, what string) error {
	if p < 0 || int(p) >= e.n {
		return fmt.Errorf("sim: %s %d out of range [0, %d)", what, p, e.n)
	}
	return nil
}

// refreshHonest rebuilds the honest-party list in the reused buffer.
func (e *engine) refreshHonest() {
	e.honest = e.honest[:0]
	for p := 0; p < e.n; p++ {
		if !e.corrupted[p] {
			e.honest = append(e.honest, PartyID(p))
		}
	}
}

// view rebuilds honestOut, the round-r traffic of the honest parties as the
// adversary is promised it: stamped, in ascending-sender emission order, one
// entry per send — a broadcast keeps To == Broadcast. The exception is an
// omission party: FilterOutbox is defined on expanded sends, so its outbox is
// expanded per recipient and passed through the adversary's filter, and the
// party then delivers exactly its surviving window, so raw[p] is pointed at
// it.
func (e *engine) view(r int, filter OutboxFilter) error {
	e.honestOut = e.honestOut[:0]
	for _, p := range e.honest {
		start := len(e.honestOut)
		omits := filter != nil && e.omission[p]
		for _, m := range e.raw[p] {
			m.From, m.Round = p, r
			if m.To == Broadcast {
				if !omits {
					e.honestOut = append(e.honestOut, m)
					continue
				}
				for to := 0; to < e.n; to++ {
					m.To = PartyID(to)
					e.honestOut = append(e.honestOut, m)
				}
				continue
			}
			if err := e.checkParty(m.To, "recipient"); err != nil {
				return err
			}
			e.honestOut = append(e.honestOut, m)
		}
		if omits {
			msgs := filter.FilterOutbox(r, p, e.honestOut[start:])
			for i := range msgs {
				if msgs[i].From != p {
					return fmt.Errorf("%w: omission filter forged sender %d", ErrForgedSender, msgs[i].From)
				}
				if err := e.checkParty(msgs[i].To, "recipient"); err != nil {
					return err
				}
			}
			// msgs is a subset of (or aliases) the just-appended window,
			// so this copy moves entries left, never right.
			e.honestOut = append(e.honestOut[:start], msgs...)
			e.raw[p] = e.honestOut[start:len(e.honestOut):len(e.honestOut)]
		}
	}
	return nil
}

// route sends one stamped message: a unicast is delivered; a broadcast
// joins the shared lane, counted as its n copies, unless that would change
// what some party reads or what the seam is promised — then it is expanded
// per recipient, exactly as before the lane existed. The three cases: the
// tamper hook sees every expanded message; under a rate limit the sender's
// remaining budget must cover all n copies (else the tail drops copy by
// copy); and a sender with unicast mail already out this round must keep its
// emission order, which the lane-before-unicast merge would break.
func (e *engine) route(m Message) error {
	if m.To != Broadcast {
		if err := e.checkParty(m.To, "recipient"); err != nil {
			return err
		}
		e.deliver(m)
		return nil
	}
	if e.tamper == nil && !e.direct[m.From] && (e.limit == 0 || e.sent[m.From]+e.n <= e.limit) {
		e.sent[m.From] += e.n
		e.nextLane = append(e.nextLane, m)
		e.msgs += e.n
		e.bytes += e.n * payloadSize(m.Payload)
		return nil
	}
	for to := 0; to < e.n; to++ {
		m.To = PartyID(to)
		e.deliver(m)
	}
	return nil
}

// deliver appends m to its recipient's next-round mailbox, after the
// optional delivery-seam hook (only the tampered payload is honored: the
// seam cannot re-address traffic or forge origins) and the per-sender rate
// limit (the tail of a flood is dropped). m must be expanded, stamped and
// address-validated.
func (e *engine) deliver(m Message) {
	if e.tamper != nil {
		tm, keep := e.tamper(m.Round, m)
		if !keep {
			return
		}
		m.Payload = tm.Payload
	}
	if e.limit > 0 {
		if e.sent[m.From] >= e.limit {
			return
		}
		e.sent[m.From]++
	}
	e.direct[m.From] = true
	e.next[m.To] = append(e.next[m.To], m)
	e.msgs++
	e.bytes += payloadSize(m.Payload)
}

// open turns last round's traffic into this round's inboxes, each ordered
// by sender with per-sender emission order preserved (the delivery order
// Machine.Step is promised). The lane is sorted once for all parties; a
// party with unicast mail reads a merge of the two, lane first on equal
// sender: route only ever lanes those of a sender's broadcasts that precede
// all its unicasts.
func (e *engine) open() {
	e.sortMailbox(e.lane)
	for p, box := range e.cur {
		if len(box) == 0 {
			e.inboxes[p] = e.lane
			continue
		}
		e.sortMailbox(box)
		if len(e.lane) == 0 {
			e.inboxes[p] = box
			continue
		}
		buf, i := e.merged[p][:0], 0
		for j := 0; j < len(box); {
			from, k := box[j].From, i
			for k < len(e.lane) && e.lane[k].From <= from {
				k++
			}
			buf = append(buf, e.lane[i:k]...)
			i, k = k, j+1
			for k < len(box) && box[k].From == from {
				k++
			}
			buf = append(buf, box[j:k]...)
			j = k
		}
		e.merged[p] = append(buf, e.lane[i:]...)
		e.inboxes[p] = e.merged[p]
	}
}

// rotate makes this round's collected traffic the next round's inboxes and
// recycles the consumed lane, mailboxes and rate-limit counters.
func (e *engine) rotate() {
	for p := range e.cur {
		e.cur[p] = e.cur[p][:0]
		e.sent[p], e.direct[p] = 0, false
	}
	e.cur, e.next = e.next, e.cur
	e.lane, e.nextLane = e.nextLane, e.lane[:0]
}

// sortMailbox orders box by sender, preserving each sender's emission order.
// Lanes and mailboxes are filled with honest senders first in ascending id
// order, so they are usually already sorted and the initial scan is the
// whole cost; adversarial traffic can break the order, in which case a
// stable counting sort keyed by sender runs in O(n + len(box)) using reused
// scratch.
func (e *engine) sortMailbox(box []Message) {
	sorted := true
	for i := 1; i < len(box); i++ {
		if box[i].From < box[i-1].From {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	counts := e.counts // all zero on entry, rezeroed below
	for i := range box {
		counts[box[i].From]++
	}
	off := 0
	for p := range counts {
		c := counts[p]
		counts[p] = off
		off += c
	}
	if cap(e.sortBuf) < len(box) {
		e.sortBuf = make([]Message, len(box))
	}
	buf := e.sortBuf[:len(box)]
	for i := range box {
		buf[counts[box[i].From]] = box[i]
		counts[box[i].From]++
	}
	copy(box, buf)
	for p := range counts {
		counts[p] = 0
	}
}
