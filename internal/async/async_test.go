package async

import (
	"errors"
	"math/rand"
	"testing"
)

// echoMachine: a toy machine — party 0 broadcasts "ping"; every recipient
// decides upon receipt.
type echoMachine struct {
	id   PartyID
	out  string
	done bool
}

func (m *echoMachine) Init() []Message {
	if m.id == 0 {
		return []Message{{To: Broadcast, Payload: "ping"}}
	}
	return nil
}

func (m *echoMachine) Deliver(msg Message) []Message {
	if s, ok := msg.Payload.(string); ok {
		m.out, m.done = s, true
	}
	return nil
}

func (m *echoMachine) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	return m.out, true
}

func echoMachines(n int) []Machine {
	ms := make([]Machine, n)
	for i := range ms {
		ms[i] = &echoMachine{id: PartyID(i)}
	}
	return ms
}

func TestRunEcho(t *testing.T) {
	res, err := Run(Config{N: 3, MaxDeliveries: 100}, echoMachines(3))
	if err != nil {
		t.Fatal(err)
	}
	for p := PartyID(0); p < 3; p++ {
		if res.Outputs[p] != "ping" {
			t.Errorf("party %d output %v", p, res.Outputs[p])
		}
	}
	if res.Depth != 1 {
		t.Errorf("depth = %d, want 1 (single hop)", res.Depth)
	}
}

func TestRunConfigErrors(t *testing.T) {
	if _, err := Run(Config{N: 0, MaxDeliveries: 1}, nil); err == nil {
		t.Error("want error for N=0")
	}
	if _, err := Run(Config{N: 3}, echoMachines(3)); err == nil {
		t.Error("want error for missing MaxDeliveries")
	}
}

func TestRunNotDecided(t *testing.T) {
	// Nobody sends to party 2 if party 0's ping is capped away.
	_, err := Run(Config{N: 3, MaxDeliveries: 1}, echoMachines(3))
	if !errors.Is(err, ErrNotDecided) {
		t.Errorf("err = %v, want ErrNotDecided", err)
	}
}

func TestSchedulers(t *testing.T) {
	schedulers := map[string]Scheduler{
		"fifo":   FIFO{},
		"lifo":   LIFO{},
		"random": Random{Rng: rand.New(rand.NewSource(1))},
		"starve": Starve{Victims: map[PartyID]bool{0: true}},
	}
	for name, s := range schedulers {
		t.Run(name, func(t *testing.T) {
			res, err := Run(Config{N: 4, MaxDeliveries: 100, Scheduler: s}, echoMachines(4))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outputs) != 4 {
				t.Errorf("outputs = %d, want 4", len(res.Outputs))
			}
		})
	}
}

// --- RBC tests ---

// rbcHarness drives n RBC components directly as Machines.
type rbcParty struct {
	id    PartyID
	rbc   *RBC[float64]
	val   float64
	lead  bool
	got   map[PartyID]float64
	done  bool
	needs int
}

func (m *rbcParty) Init() []Message {
	if m.lead {
		return []Message{{To: Broadcast, Payload: Step[float64]{Kind: KindInit, Iter: 1, Src: m.id, Val: m.val}}}
	}
	return nil
}

func (m *rbcParty) Deliver(msg Message) []Message {
	out, s, delivered := rbcStep(m.rbc, msg)
	if delivered {
		m.got[s.Src] = s.Val
	}
	if len(m.got) >= m.needs {
		m.done = true
	}
	return out
}

// rbcStep feeds one message to an RBC component and renders its reply as
// the broadcast a machine would send.
func rbcStep(r *RBC[float64], msg Message) (out []Message, s Step[float64], delivered bool) {
	s, ok := msg.Payload.(Step[float64])
	if !ok {
		return nil, s, false
	}
	reply, delivered := r.Handle(msg.From, s)
	if reply != 0 {
		re := s
		re.Kind = reply
		out = []Message{{To: Broadcast, Payload: re}}
	}
	return out, s, delivered
}

func (m *rbcParty) Output() (any, bool) {
	if !m.done {
		return nil, false
	}
	cp := make(map[PartyID]float64, len(m.got))
	for k, v := range m.got {
		cp[k] = v
	}
	return cp, true
}

func rbcParties(n, t, leaders, needs int, vals []float64) []Machine {
	ms := make([]Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = &rbcParty{
			id: PartyID(i), rbc: NewRBC[float64](n, t, 1),
			val: vals[i], lead: i < leaders, got: map[PartyID]float64{}, needs: needs,
		}
	}
	return ms
}

func TestRBCHonestLeaders(t *testing.T) {
	n, tc := 4, 1
	vals := []float64{7, 8, 9, 10}
	for _, sched := range []Scheduler{FIFO{}, LIFO{}, Random{Rng: rand.New(rand.NewSource(3))}} {
		res, err := Run(Config{N: n, MaxDeliveries: 10000, Scheduler: sched}, rbcParties(n, tc, n, n, vals))
		if err != nil {
			t.Fatal(err)
		}
		for p, raw := range res.Outputs {
			got := raw.(map[PartyID]float64)
			for src, v := range got {
				if v != vals[src] {
					t.Errorf("party %d delivered %v for src %d, want %v", p, v, src, vals[src])
				}
			}
		}
	}
}

// equivocatingRBCLeader sends different INITs to different halves.
type equivocatingRBCLeader struct {
	id   PartyID
	n    int
	rbc  *RBC[float64]
	sent bool
}

func (m *equivocatingRBCLeader) Init() []Message {
	m.sent = true
	var out []Message
	for to := 0; to < m.n; to++ {
		v := 1.0
		if to >= m.n/2 {
			v = 2.0
		}
		out = append(out, Message{To: PartyID(to), Payload: Step[float64]{Kind: KindInit, Iter: 1, Src: m.id, Val: v}})
	}
	return out
}

func (m *equivocatingRBCLeader) Deliver(msg Message) []Message {
	// Participate honestly as echoer so honest broadcasts complete.
	out, _, _ := rbcStep(m.rbc, msg)
	return out
}

func (m *equivocatingRBCLeader) Output() (any, bool) { return nil, true }

func TestRBCConsistencyUnderEquivocation(t *testing.T) {
	n, tc := 4, 1
	vals := []float64{7, 8, 9, 99}
	for seed := int64(0); seed < 20; seed++ {
		ms := rbcParties(n, tc, 3, 3, vals) // parties 0-2 honest leaders; wait for 3 deliveries
		ms[3] = &equivocatingRBCLeader{id: 3, n: n, rbc: NewRBC[float64](n, tc, 1)}
		res, err := Run(Config{
			N: n, MaxDeliveries: 10000,
			Honest:    map[PartyID]bool{0: true, 1: true, 2: true},
			Scheduler: Random{Rng: rand.New(rand.NewSource(seed))},
		}, ms)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Consistency: if two honest parties delivered for src 3, the values
		// must agree (they may also not deliver for 3 at all).
		var seen *float64
		for p := PartyID(0); p < 3; p++ {
			got, ok := res.Outputs[p].(map[PartyID]float64)
			if !ok {
				continue
			}
			if v, ok := got[3]; ok {
				if seen != nil && *seen != v {
					t.Fatalf("seed %d: inconsistent RBC deliveries for equivocator: %v vs %v", seed, *seen, v)
				}
				vv := v
				seen = &vv
			}
		}
	}
}

func TestRBCNoForgedInit(t *testing.T) {
	// A Byzantine party relaying an INIT with Src != From must be ignored.
	n, tc := 4, 1
	r := NewRBC[float64](n, tc, 1)
	init := Step[float64]{Kind: KindInit, Iter: 1, Src: 1, Val: 5}
	if reply, delivered := r.Handle(2, init); reply != 0 || delivered {
		t.Error("forged INIT processed")
	}
	// Genuine INIT passes.
	if reply, _ := r.Handle(1, init); reply != KindEcho {
		t.Error("genuine INIT not echoed")
	}
}

func TestRBCDuplicateVotesIgnored(t *testing.T) {
	n, tc := 4, 1
	r := NewRBC[float64](n, tc, 1)
	echo := Step[float64]{Kind: KindEcho, Iter: 1, Src: 1, Val: 5}
	for i := 0; i < 5; i++ {
		r.Handle(2, echo)
	}
	// One echoer, even repeated, is far below n-t: no ready sent.
	if reply, _ := r.Handle(2, echo); reply != 0 {
		t.Error("duplicate echoes amplified")
	}
}

// TestRBCTotality: if any honest party delivers a value for a Byzantine
// broadcaster, every honest party eventually delivers the same value — we
// drive the execution until the pending set drains and compare.
func TestRBCTotality(t *testing.T) {
	n, tc := 4, 1
	vals := []float64{7, 8, 9, 99}
	for seed := int64(0); seed < 30; seed++ {
		// Parties wait for all four deliveries but we stop at drain; the
		// required set is empty so Run ends when pending drains.
		ms := rbcParties(n, tc, 3, 99 /* never "done" */, vals)
		ms[3] = &equivocatingRBCLeader{id: 3, n: n, rbc: NewRBC[float64](n, tc, 1)}
		res, err := Run(Config{
			N: n, MaxDeliveries: 100000,
			Honest:    map[PartyID]bool{}, // run to drain
			Scheduler: Random{Rng: rand.New(rand.NewSource(seed))},
		}, ms)
		if err != nil && !errors.Is(err, ErrNotDecided) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_ = res
		// Inspect the parties' delivery maps directly.
		type result struct {
			got map[PartyID]float64
		}
		var delivered []map[PartyID]float64
		for p := 0; p < 3; p++ {
			delivered = append(delivered, ms[p].(*rbcParty).got)
		}
		// Totality + consistency for every src any honest party delivered.
		for src := PartyID(0); int(src) < n; src++ {
			var seen *float64
			count := 0
			for _, got := range delivered {
				if v, ok := got[src]; ok {
					count++
					if seen != nil && *seen != v {
						t.Fatalf("seed %d: inconsistent deliveries for src %d", seed, src)
					}
					vv := v
					seen = &vv
				}
			}
			if count != 0 && count != 3 {
				t.Fatalf("seed %d: totality violated for src %d: %d of 3 honest delivered", seed, src, count)
			}
		}
	}
}
