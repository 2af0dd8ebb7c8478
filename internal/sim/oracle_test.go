package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The expand-everything routing the engine ran before the shared broadcast
// lane, kept as the reference the differential test compares against: every
// broadcast is copied into n mailboxes one Message at a time, the
// adversary-free and adversary paths deliver separately, adaptive corruption
// retracts by compacting the expanded honest traffic, and every mailbox is
// stably sorted by sender at round start. Only the corruption-budget check
// follows the live engine (corrupted ∪ omission, every round), so the two
// agree on which scripted runs are legal.

type oracleEngine struct {
	n, limit  int
	tamper    func(int, Message) (Message, bool)
	cur, next [][]Message
	sent      []int
	corrupted []bool
	omission  []bool
	msgs      int
	bytes     int
}

func (e *oracleEngine) checkParty(p PartyID, what string) error {
	if p < 0 || int(p) >= e.n {
		return fmt.Errorf("sim: %s %d out of range [0, %d)", what, p, e.n)
	}
	return nil
}

func (e *oracleEngine) honest() []PartyID {
	var hs []PartyID
	for p := 0; p < e.n; p++ {
		if !e.corrupted[p] {
			hs = append(hs, PartyID(p))
		}
	}
	return hs
}

// expand appends m's point-to-point copies to dst.
func (e *oracleEngine) expand(dst []Message, m Message) ([]Message, error) {
	if m.To == Broadcast {
		for to := 0; to < e.n; to++ {
			mm := m
			mm.To = PartyID(to)
			dst = append(dst, mm)
		}
		return dst, nil
	}
	if err := e.checkParty(m.To, "recipient"); err != nil {
		return nil, err
	}
	return append(dst, m), nil
}

// deliver is tamperDeliver + deliver of the parent engine: the seam first,
// then the per-sender rate limit, then the recipient's mailbox.
func (e *oracleEngine) deliver(r int, m Message) {
	if e.tamper != nil {
		tm, keep := e.tamper(r, m)
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
	e.next[m.To] = append(e.next[m.To], m)
	e.msgs++
	e.bytes += payloadSize(m.Payload)
}

func oracleRun(cfg Config, machines []Machine) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("sim: %d machines for N = %d", len(machines), cfg.N)
	}
	n := cfg.N
	e := &oracleEngine{
		n: n, limit: cfg.MaxMessagesPerParty, tamper: cfg.Tamper,
		cur: make([][]Message, n), next: make([][]Message, n),
		sent: make([]int, n), corrupted: make([]bool, n), omission: make([]bool, n),
	}
	corrupted := make(map[PartyID]bool)
	omissionCount := 0
	var filter OutboxFilter
	if cfg.Adversary != nil {
		for _, p := range cfg.Adversary.Initial() {
			if err := e.checkParty(p, "corrupted party"); err != nil {
				return nil, err
			}
			corrupted[p] = true
			e.corrupted[p] = true
		}
		if f, ok := cfg.Adversary.(OutboxFilter); ok {
			filter = f
			for _, p := range f.OmissionParties() {
				if err := e.checkParty(p, "omission party"); err != nil {
					return nil, err
				}
				if corrupted[p] {
					return nil, fmt.Errorf("sim: party %d is both Byzantine and omission-faulty", p)
				}
				e.omission[p] = true
				omissionCount++
			}
		}
		if len(corrupted)+omissionCount > cfg.MaxCorrupt {
			return nil, fmt.Errorf("%w: %d initial corruptions, budget %d",
				ErrBudgetExceeded, len(corrupted)+omissionCount, cfg.MaxCorrupt)
		}
	}
	res := &Result{Outputs: make(map[PartyID]any), Corrupted: corrupted}
	done := make([]bool, n)
	raw := make([][]Message, n)

	for r := 1; r <= cfg.MaxRounds; r++ {
		for p := range e.cur {
			box := e.cur[p]
			sort.SliceStable(box, func(i, j int) bool { return box[i].From < box[j].From })
		}
		honest := e.honest()
		for _, p := range honest {
			raw[p] = machines[p].Step(r, e.cur[p])
		}

		e.msgs, e.bytes = 0, 0
		var honestOut, advOut []Message
		var err error
		for _, p := range honest {
			start := len(honestOut)
			for _, m := range raw[p] {
				m.From, m.Round = p, r
				if honestOut, err = e.expand(honestOut, m); err != nil {
					return nil, err
				}
			}
			if filter != nil && e.omission[p] {
				msgs := filter.FilterOutbox(r, p, honestOut[start:])
				for i := range msgs {
					if msgs[i].From != p {
						return nil, fmt.Errorf("%w: omission filter forged sender %d", ErrForgedSender, msgs[i].From)
					}
					if err := e.checkParty(msgs[i].To, "recipient"); err != nil {
						return nil, err
					}
				}
				honestOut = append(honestOut[:start], msgs...)
			}
		}
		if cfg.Adversary != nil {
			corruptInbox := make(map[PartyID][]Message, len(corrupted))
			for p := range corrupted {
				corruptInbox[p] = e.cur[p]
			}
			msgs, more := cfg.Adversary.Step(r, honestOut, corruptInbox)
			for _, p := range more {
				if err := e.checkParty(p, "corrupted party"); err != nil {
					return nil, err
				}
				if e.omission[p] {
					e.omission[p] = false
					omissionCount--
				}
				corrupted[p] = true
				e.corrupted[p] = true
			}
			if len(corrupted)+omissionCount > cfg.MaxCorrupt {
				return nil, fmt.Errorf("%w: %d corruptions at round %d, budget %d",
					ErrBudgetExceeded, len(corrupted)+omissionCount, r, cfg.MaxCorrupt)
			}
			if len(more) > 0 {
				kept := honestOut[:0]
				for _, m := range honestOut {
					if !e.corrupted[m.From] {
						kept = append(kept, m)
					}
				}
				honestOut = kept
			}
			for _, m := range msgs {
				if !corrupted[m.From] {
					return nil, fmt.Errorf("%w: message from party %d at round %d", ErrForgedSender, m.From, r)
				}
			}
			for _, m := range msgs {
				m.Round = r
				if advOut, err = e.expand(advOut, m); err != nil {
					return nil, err
				}
			}
		}
		for _, m := range honestOut {
			e.deliver(r, m)
		}
		for _, m := range advOut {
			e.deliver(r, m)
		}
		res.Messages += e.msgs
		res.Bytes += e.bytes
		res.Rounds = r

		var newlyDone []PartyID
		allDone := true
		for _, p := range e.honest() {
			if done[p] {
				continue
			}
			if v, ok := machines[p].Output(); ok {
				done[p] = true
				res.Outputs[p] = v
				newlyDone = append(newlyDone, p)
			} else {
				allDone = false
			}
		}
		if cfg.Trace != nil {
			cfg.Trace.Rounds = append(cfg.Trace.Rounds, TraceRound{
				Round: r, Messages: e.msgs, Bytes: e.bytes, NewlyDone: newlyDone,
			})
		}
		if allDone {
			return res, nil
		}
		for p := range e.cur {
			e.cur[p] = e.cur[p][:0]
			e.sent[p] = 0
		}
		e.cur, e.next = e.next, e.cur
	}
	return res, fmt.Errorf("%w: after %d rounds", ErrNotDone, cfg.MaxRounds)
}

// ---- differential test: lane engine vs. the oracle ----

// seen is one delivered message as a machine observes it. To is left out on
// purpose: a laned broadcast arrives with To == Broadcast, an expanded one
// with the recipient's id.
type seen struct {
	From    PartyID
	Round   int
	Payload any
}

func observe(inbox []Message) []seen {
	out := make([]seen, len(inbox))
	for i, m := range inbox {
		out[i] = seen{m.From, m.Round, m.Payload}
	}
	return out
}

// script draws one sender's messages for a round: up to four, each a
// broadcast or a unicast, so broadcast-then-unicast, unicast-then-broadcast
// and repeated broadcasts all occur. Every third payload has no Sizer.
func script(rng *rand.Rand, n int, from PartyID, dst []Message) []Message {
	for k := rng.Intn(5); k > 0; k-- {
		m := Message{From: from, To: Broadcast}
		if rng.Intn(2) == 0 {
			m.To = PartyID(rng.Intn(n))
		}
		if v := rng.Intn(1000); v%3 == 0 {
			m.Payload = v
		} else {
			m.Payload = intPayload(v)
		}
		dst = append(dst, m)
	}
	return dst
}

// scriptMachine emits a seeded script and logs every inbox it is handed.
type scriptMachine struct {
	n      int
	rounds int
	rng    *rand.Rand
	log    [][]seen // per round
	done   bool
}

func (m *scriptMachine) Step(r int, inbox []Message) []Message {
	m.log = append(m.log, observe(inbox))
	if r > m.rounds {
		m.done = true
		return nil
	}
	return script(m.rng, m.n, 0, nil) // From is the network's to stamp
}

func (m *scriptMachine) Output() (any, bool) { return len(m.log), m.done }

// scriptAdversary corrupts `initial` up front and adapt[r] at round r
// (possibly promoting its omission party), sends seeded scripts from its
// corrupted ids in shuffled order — so its broadcasts reach the lane out of
// sender order, interleaved with honest ids — drops a seeded subset of the
// omission parties' sends, and logs both views it is handed.
type scriptAdversary struct {
	n        int
	rng      *rand.Rand
	initial  []PartyID
	omission []PartyID
	adapt    map[int]PartyID
	owned    []PartyID
	views    [][]Message          // honestOut per round
	inboxes  []map[PartyID][]seen // corruptInbox per round
}

func (a *scriptAdversary) Initial() []PartyID {
	a.owned = append([]PartyID(nil), a.initial...)
	return a.initial
}

func (a *scriptAdversary) OmissionParties() []PartyID { return a.omission }

func (a *scriptAdversary) FilterOutbox(_ int, _ PartyID, msgs []Message) []Message {
	kept := msgs[:0]
	for _, m := range msgs {
		if a.rng.Intn(3) > 0 {
			kept = append(kept, m)
		}
	}
	return kept
}

func (a *scriptAdversary) Step(r int, honestOut []Message, corruptInbox map[PartyID][]Message) ([]Message, []PartyID) {
	a.views = append(a.views, append([]Message(nil), honestOut...))
	in := make(map[PartyID][]seen, len(corruptInbox))
	for p, box := range corruptInbox {
		in[p] = observe(box)
	}
	a.inboxes = append(a.inboxes, in)

	var more []PartyID
	if p, ok := a.adapt[r]; ok {
		more = []PartyID{p}
		a.owned = append(a.owned, p)
	}
	var out []Message
	for _, i := range a.rng.Perm(len(a.owned)) {
		out = script(a.rng, a.n, a.owned[i], out)
	}
	a.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, more
}

// tamperLog is a seeded stateful delivery seam: it records every call,
// drops every fifth message and rewrites every third payload.
type tamperLog struct {
	calls []Message
}

func (t *tamperLog) hook(r int, m Message) (Message, bool) {
	t.calls = append(t.calls, m)
	switch len(t.calls) % 15 {
	case 0, 5, 10:
		return m, false
	case 3, 6, 9, 12:
		m.Payload = intPayload(-len(t.calls))
	}
	return m, true
}

// execution is everything observable about one run.
type execution struct {
	Res      *Result
	Trace    Trace
	Machines [][][]seen
	Views    [][]Message
	Inboxes  []map[PartyID][]seen
	Tampered []Message
}

type diffCase struct {
	seed      int64
	n, limit  int
	adversary int // 0 none, 1 Byzantine + adaptive, 2 with an omission party it later promotes
	tamper    bool
}

func (c diffCase) run(t *testing.T, drive func(Config, []Machine) (*Result, error)) execution {
	t.Helper()
	const rounds = 7
	var ex execution
	cfg := Config{N: c.n, MaxRounds: rounds + 2, MaxMessagesPerParty: c.limit, Trace: &ex.Trace}
	machines := make([]Machine, c.n)
	scripts := make([]*scriptMachine, c.n)
	for i := range machines {
		scripts[i] = &scriptMachine{n: c.n, rounds: rounds, rng: rand.New(rand.NewSource(c.seed*131 + int64(i)))}
		machines[i] = scripts[i]
	}
	var adv *scriptAdversary
	if c.adversary > 0 {
		adv = &scriptAdversary{
			n: c.n, rng: rand.New(rand.NewSource(c.seed*977 + 5)),
			initial: []PartyID{PartyID(c.n - 2)},
			adapt:   map[int]PartyID{3: 0},
		}
		cfg.MaxCorrupt = 2
		if c.adversary == 2 {
			adv.omission = []PartyID{1}
			adv.adapt[5] = 1 // omission → Byzantine: still three faulty parties
			cfg.MaxCorrupt = 3
		}
		cfg.Adversary = adv
	}
	var tl tamperLog
	if c.tamper {
		cfg.Tamper = tl.hook
	}
	res, err := drive(cfg, machines)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	ex.Res, ex.Tampered = res, tl.calls
	for _, m := range scripts {
		ex.Machines = append(ex.Machines, m.log)
	}
	if adv != nil {
		ex.Views, ex.Inboxes = adv.views, adv.inboxes
	}
	return ex
}

// TestRunMatchesExpandEverythingOracle drives the lane engine, under both
// drivers, and the oracle with the same seeded scripts and requires
// identical executions: what every machine reads every round, both adversary
// views, the tamper hook's call sequence, Result and Trace.
func TestRunMatchesExpandEverythingOracle(t *testing.T) {
	cases := 0
	for _, n := range []int{4, 7} {
		for _, limit := range []int{0, n - 1, n, 2*n + 1} {
			for adversary := 0; adversary <= 2; adversary++ {
				for _, tamper := range []bool{false, true} {
					for seed := int64(1); seed <= 6; seed++ {
						c := diffCase{seed: seed, n: n, limit: limit, adversary: adversary, tamper: tamper}
						want := c.run(t, oracleRun)
						for name, drive := range map[string]func(Config, []Machine) (*Result, error){
							"Run": Run, "RunConcurrent": RunConcurrent,
						} {
							if got := c.run(t, drive); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s diverges from the oracle on %+v:\n got %+v\nwant %+v", name, c, got, want)
							}
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}
