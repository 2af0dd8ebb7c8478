package driver

import (
	"fmt"
	"sort"

	"treeaa/internal/sim"
)

// Sink receives what a Round emits. The adapter frames and routes; range
// checks, self-delivery and accounting are already done when it is called.
type Sink interface {
	// Emit ships one round-r protocol message to its remote recipients. to is
	// a party id or sim.Broadcast; the local party's own copy (to == self, or
	// the self share of a broadcast) has been delivered already and must not
	// be sent.
	Emit(round int, to sim.PartyID, payload any) error
	// EndRound runs after the last Emit of a round: the adapter contributes
	// to the round's barrier (done reports whether the machine has output).
	EndRound(round int, done bool) error
}

// Result is one party's share of a sim.Result.
type Result struct {
	ID        sim.PartyID
	Output    any
	Done      bool
	DoneRound int     // round the machine terminated in (0 if never)
	TermRound int     // round the whole execution stopped in
	PerRound  []Tally // sends per executed round; index i is round i+1
}

// Total sums the per-round tallies.
func (r *Result) Total() Tally {
	var t Tally
	for _, c := range r.PerRound {
		t.add(c)
	}
	return t
}

// Round drives one honest machine in lock step with its peers:
//
//	file arrivals → barrier complete → Step → emit → end round → ...
//
// The adapter files every arriving message and end-of-round mark, then calls
// Advance, which crosses each barrier that is complete — by default when the
// marks of all n-1 peers are in, or when the adapter Released the round on
// an aggregate signal of its own. Link FIFO puts a peer's round-r messages
// ahead of its round-r mark, so a complete barrier means a complete inbox.
// The execution terminates in the first round whose barrier shows every
// party done, the rule that reduces to sim's "all honest machines produced
// output"; a machine still running after maxRounds fails with sim.ErrNotDone.
//
// An adapter whose parties are all honest may ElideFinalBarrier: the round
// in which the machine decides then ends at its step instead of at a barrier
// that could only confirm what every party already knows.
type Round struct {
	id        sim.PartyID
	n         int
	maxRounds int
	machine   sim.Machine
	sink      Sink
	box       Mailbox
	scratch   []sim.Message

	cur                    int // last stepped round; its barrier is awaited
	released, releasedDone bool
	elide                  bool // ElideFinalBarrier opted in
	res                    Result
}

// NewRound returns a driver for party id of n. window is how many rounds —
// the awaited one included — may hold traffic at once (0: unbounded); it is
// a property of the adapter's substrate, fixed in its code.
func NewRound(id sim.PartyID, n, maxRounds, window int, machine sim.Machine, sink Sink) *Round {
	return &Round{id: id, n: n, maxRounds: maxRounds, machine: machine, sink: sink,
		box: Mailbox{n: n, window: window, base: 1}, res: Result{ID: id}}
}

// ElideFinalBarrier lets the party finish at the step that leaves its
// machine done: that round's sends are charged to the tally, as sim.Run
// counts them, but neither filed nor emitted, and there is no EndRound and
// no awaiting of marks. Sound only where every party is honest and reads the
// same broadcasts — all machines are then done in the same round, each
// finishes it on its own, and TermRound is the round sim.Run stops in (Merge
// rejects unequal ones) — so it is the adapter's choice, made in its code.
func (r *Round) ElideFinalBarrier() { r.elide = true }

// File stores one arrived message; m.Round is its sending round.
func (r *Round) File(m sim.Message) error { return r.box.File(m) }

// EOR stores a peer's end-of-round mark.
func (r *Round) EOR(round int, from sim.PartyID, done bool) error {
	return r.box.EOR(round, from, done)
}

// HasEOR reports whether from's mark for the awaited round has arrived.
func (r *Round) HasEOR(from sim.PartyID) bool { return r.box.HasEOR(r.cur, from) }

// Release completes the awaited round's barrier on the adapter's own
// aggregate signal; allDone reports whether every party had terminated.
func (r *Round) Release(allDone bool) { r.released, r.releasedDone = true, allDone }

// Round returns the last stepped round, the one whose barrier is awaited.
func (r *Round) Round() int { return r.cur }

// Result returns the party's result so far; TermRound is set once Advance
// reported the execution finished.
func (r *Round) Result() *Result { return &r.res }

// Ready reports whether the awaited barrier is complete.
func (r *Round) Ready() bool {
	complete, _ := r.barrier()
	return complete
}

func (r *Round) barrier() (complete, allDone bool) {
	if r.released {
		return true, r.releasedDone
	}
	eors, dones := r.box.Barrier(r.cur)
	return eors == r.n-1, dones == r.n-1
}

// Advance steps round 1 on its first call, then crosses every barrier the
// mailbox has completed: the execution is finished when this party and all
// peers are done, otherwise the next round steps. One batch of arrivals can
// carry a party across several rounds.
func (r *Round) Advance() (finished bool, err error) {
	for {
		if r.res.TermRound > 0 {
			return true, nil
		}
		if r.cur > 0 {
			complete, allDone := r.barrier()
			if !complete {
				return false, nil
			}
			if r.res.Done && allDone {
				r.res.TermRound = r.cur
				return true, nil
			}
			if r.cur >= r.maxRounds {
				return false, fmt.Errorf("%w: party %d after %d rounds", sim.ErrNotDone, r.id, r.maxRounds)
			}
		}
		if err := r.step(r.cur + 1); err != nil {
			return false, fmt.Errorf("party %d round %d: %w", r.id, r.cur, err)
		}
	}
}

func (r *Round) step(round int) error {
	inbox := r.box.Inbox(round-1, r.scratch[:0])
	out := r.machine.Step(round, inbox)
	r.scratch = inbox
	r.box.Retire(round - 1)
	r.cur, r.released = round, false
	if !r.res.Done {
		if v, ok := r.machine.Output(); ok {
			r.res.Output, r.res.Done, r.res.DoneRound = v, true, round
		}
	}
	var t Tally
	finish := r.elide && r.res.Done
	for _, m := range out {
		first, last, err := t.Charge(r.n, m.To, m.Payload)
		if err != nil {
			return err
		}
		if finish {
			continue
		}
		if first <= r.id && r.id <= last {
			if err := r.box.File(sim.Message{From: r.id, To: r.id, Round: round, Payload: m.Payload}); err != nil {
				return err
			}
		}
		if err := r.sink.Emit(round, m.To, m.Payload); err != nil {
			return err
		}
	}
	r.res.PerRound = append(r.res.PerRound, t)
	if finish {
		r.res.TermRound = round
		return nil
	}
	return r.sink.EndRound(round, r.res.Done)
}

// Merge folds per-party results into the sim.Result the engine would have
// produced, checking on the way that every party observed the same
// termination round — they must, since all decide from the same done flags,
// so a mismatch is an adapter bug, not a protocol property. host, when
// non-nil, is the co-hosted corrupted side: it contributes sends and a
// termination round but no outputs. trace, when non-nil, receives the
// per-round records.
func Merge(trace *sim.Trace, corrupted []sim.PartyID, parties []*Result, host *Result) (*sim.Result, error) {
	res := &sim.Result{
		Outputs:   make(map[sim.PartyID]any, len(parties)),
		Corrupted: make(map[sim.PartyID]bool, len(corrupted)),
	}
	for _, c := range corrupted {
		res.Corrupted[c] = true
	}
	term := 0
	for _, p := range parties {
		if term == 0 {
			term = p.TermRound
		} else if p.TermRound != term {
			return nil, fmt.Errorf("party %d terminated at round %d, others at %d", p.ID, p.TermRound, term)
		}
	}
	if host != nil && host.TermRound != term {
		return nil, fmt.Errorf("adversary host terminated at round %d, parties at %d", host.TermRound, term)
	}
	res.Rounds = term

	perRound := make([]Tally, term)
	doneAt := make(map[int][]sim.PartyID)
	add := func(p *Result) {
		for i := 0; i < term && i < len(p.PerRound); i++ {
			perRound[i].add(p.PerRound[i])
		}
	}
	for _, p := range parties {
		add(p)
		res.Outputs[p.ID] = p.Output
		doneAt[p.DoneRound] = append(doneAt[p.DoneRound], p.ID)
	}
	if host != nil {
		add(host)
	}
	for i, t := range perRound {
		res.Messages += t.Msgs
		res.Bytes += t.Bytes
		if trace != nil {
			newlyDone := doneAt[i+1]
			sort.Slice(newlyDone, func(a, b int) bool { return newlyDone[a] < newlyDone[b] })
			trace.Rounds = append(trace.Rounds, sim.TraceRound{
				Round: i + 1, Messages: t.Msgs, Bytes: t.Bytes, NewlyDone: newlyDone,
			})
		}
	}
	return res, nil
}
