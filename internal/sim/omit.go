package sim

import "fmt"

// Omit wraps party p's machine, one of n, in the send-omission filter f: each
// Step stamps the inner outbox (From p, Round r), expands every broadcast
// into its n unicasts and returns what f.FilterOutbox keeps of them. Every
// fabric runs an omission party this way, in its own seat, so what it
// delivers and what the adversary sees of it are those filtered unicasts. A
// filter that forges the sender or names no party fails a Run or
// RunConcurrent execution; on a TCP link the sender is the one the link's
// hello named and the driver refuses the recipient.
func Omit(f OutboxFilter, p PartyID, n int, m Machine) Machine {
	return &omitter{Machine: m, f: f, p: p, n: n}
}

type omitter struct {
	Machine
	f   OutboxFilter
	p   PartyID
	n   int
	buf []Message // the expanded outbox, reused across rounds
	err error     // the first contract breach, for run to report
}

func (o *omitter) Step(r int, inbox []Message) []Message { return o.StepLane(r, inbox, nil) }

// StepLane implements LaneReader: the lane goes to the wrapped machine,
// whose inbox it is; only the sends are filtered.
func (o *omitter) StepLane(r int, inbox []Message, lane *Lane) []Message {
	o.buf = o.buf[:0]
	for _, m := range StepLane(o.Machine, r, inbox, lane) {
		m.From, m.Round = o.p, r
		if m.To != Broadcast {
			o.buf = append(o.buf, m)
			continue
		}
		for to := 0; to < o.n; to++ {
			m.To = PartyID(to)
			o.buf = append(o.buf, m)
		}
	}
	msgs := o.f.FilterOutbox(r, o.p, o.buf)
	for _, m := range msgs {
		switch {
		case o.err != nil:
		case m.From != o.p:
			o.err = fmt.Errorf("%w: omission filter forged sender %d", ErrForgedSender, m.From)
		case m.To < 0 || int(m.To) >= o.n:
			o.err = fmt.Errorf("sim: recipient %d out of range [0, %d)", m.To, o.n)
		}
	}
	return msgs
}
