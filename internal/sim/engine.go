package sim

import "fmt"

// engine owns the reusable buffers of the round loop. A stamped broadcast
// is stored once, in a per-round lane every party's inbox shares; the
// per-party mailboxes hold unicasts only. Every slice is allocated once per
// execution and len-reset between rounds, so a steady round (no newly
// terminated parties, no trace) performs no heap allocations of its own:
// lanes, mailboxes, merge buffers, outbox scratch and the counting-sort
// scratch all retain their capacity across rounds. A party's merge buffer
// is made the first time it reads a merge, at that round's lane plus
// mailbox, rather than doubled up from nil. The lane's digest store is the
// engine's too: emptied every round, its capacity kept.
type engine struct {
	n int

	// lane and cur hold the traffic delivered this round (sent last round):
	// the broadcasts, To still Broadcast, and each party's unicasts.
	// nextLane and next collect what is sent this round; rotate swaps them.
	lane, nextLane []Message
	cur, next      [][]Message
	// inboxes[p] is what party p reads this round: the lane itself when p
	// has no unicast mail, else the lane merged with cur[p] into merged[p].
	inboxes, merged [][]Message
	// digests is the store of the round's lane, for the parties reading it
	// (readsLane).
	digests Lane
	// raw holds each honest party's unexpanded outbox for the current
	// round, indexed by party (entries for corrupted parties are stale and
	// never read).
	raw [][]Message

	honest    []PartyID // current honest parties, ascending
	honestOut []Message // stamped honest traffic as sent: the adversary's view
	direct    []bool    // sender has unicast mail out this round
	counts    []int     // counting-sort histogram scratch
	sortBuf   []Message // counting-sort output scratch

	msgs, bytes int // delivered this round, after broadcast expansion

	corrupted []bool // mirror of the Result.Corrupted map for hot-path checks
}

// newEngine allocates the engine and its per-party tables, the five
// mailbox tables carved out of one slab and the two flag sets out of
// another (the engine lives on the heap: readers hold its digest store).
func newEngine(cfg Config) *engine {
	n := cfg.N
	boxes := make([][]Message, 5*n)
	flags := make([]bool, 2*n)
	return &engine{
		n:       n,
		cur:     boxes[:n:n],
		next:    boxes[n : 2*n : 2*n],
		inboxes: boxes[2*n : 3*n : 3*n],
		merged:  boxes[3*n : 4*n : 4*n],
		raw:     boxes[4*n:],

		honest:    make([]PartyID, 0, n),
		direct:    flags[:n:n],
		counts:    make([]int, n),
		corrupted: flags[n:],
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
// entry per send — a broadcast keeps To == Broadcast. An omission party's
// outbox is already its filtered unicasts (its machine runs under Omit).
func (e *engine) view(r int) error {
	e.honestOut = e.honestOut[:0]
	for _, p := range e.honest {
		for _, m := range e.raw[p] {
			m.From, m.Round = p, r
			if m.To != Broadcast {
				if err := e.checkParty(m.To, "recipient"); err != nil {
					return err
				}
			}
			e.honestOut = append(e.honestOut, m)
		}
	}
	return nil
}

// route sends one stamped message: a unicast is delivered; a broadcast
// joins the shared lane, counted as its n copies, unless that would change
// what some party reads — then it is expanded per recipient, exactly as
// before the lane existed. That is the case of a sender with unicast mail
// already out this round: it must keep its emission order, which the
// lane-before-unicast merge would break.
func (e *engine) route(m Message) error {
	if m.To != Broadcast {
		if err := e.checkParty(m.To, "recipient"); err != nil {
			return err
		}
		e.deliver(m)
		return nil
	}
	if !e.direct[m.From] {
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

// deliver appends m to its recipient's next-round mailbox. m must be
// expanded, stamped and address-validated.
func (e *engine) deliver(m Message) {
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
	e.digests.reset()
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
		if e.merged[p] == nil {
			e.merged[p] = make([]Message, 0, len(e.lane)+len(box))
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

// readsLane reports whether party p's inbox this round is the lane itself,
// and one with something in it: the parties StepLane is for.
func (e *engine) readsLane(p PartyID) bool {
	return len(e.cur[p]) == 0 && len(e.lane) > 0
}

// rotate makes this round's collected traffic the next round's inboxes and
// recycles the consumed lane and mailboxes.
func (e *engine) rotate() {
	for p := range e.cur {
		e.cur[p] = e.cur[p][:0]
		e.direct[p] = false
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
