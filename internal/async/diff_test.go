package async

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// floodSeat is a Byzantine party whose traffic both implementations can
// express: equivocating openings, then a bounded stream of steps for random
// instances — forged echoes and readies under other broadcasters' names,
// reports naming nobody, everybody or senders nobody holds — all inside the
// iteration budgets and with ascending in-range sender sets. (What only one
// side can express — out-of-budget iterations, unsorted sets — the other
// side would answer differently; TestInvalidStepsCostNothing covers that.)
// render turns a step into the payload the fleet under test speaks, so the
// two fleets see the same attack as long as they behave the same.
type floodSeat struct {
	id     PartyID
	n      int
	iters  [2]int // per phase
	rng    *rand.Rand
	budget int
	render func(phase byte, s Step[float64]) any
}

func (m *floodSeat) Init() []Message {
	out := make([]Message, m.n)
	for to := range out {
		out[to] = Message{To: PartyID(to), Payload: m.render(PhasePathsFinder,
			Step[float64]{Kind: KindInit, Iter: 1, Src: m.id, Val: float64(m.rng.Intn(3) * 40)})}
	}
	return out
}

func (m *floodSeat) Deliver(Message) []Message {
	if m.budget <= 0 {
		return nil
	}
	m.budget--
	phase := byte(1 + m.rng.Intn(2))
	s := Step[float64]{
		Kind: byte(1 + m.rng.Intn(3)),
		Iter: 1 + m.rng.Intn(m.iters[phase-1]),
		Src:  m.id,
	}
	if s.Kind != KindInit {
		s.Src = PartyID(m.rng.Intn(m.n))
	}
	if s.Report = m.rng.Intn(2) == 0; s.Report {
		for p := 0; p < m.n; p++ {
			if m.rng.Intn(3) > 0 {
				s.Senders = append(s.Senders, PartyID(p))
			}
		}
	} else {
		s.Val = float64(m.rng.Intn(4)*50 - 50)
	}
	to := Broadcast
	if m.rng.Intn(2) == 0 {
		to = PartyID(m.rng.Intn(m.n))
	}
	return []Message{{To: to, Payload: m.render(phase, s)}}
}

func (m *floodSeat) Output() (any, bool) { return nil, true }

func renderOracle(phase byte, s Step[float64]) any {
	prefix := oraclePrefixPF
	if phase == PhaseProjection {
		prefix = oraclePrefixPJ
	}
	if s.Report {
		set := make(map[PartyID]bool, len(s.Senders))
		for _, p := range s.Senders {
			set[p] = true
		}
		return oracleMsg[string]{Tag: prefix + oracleRepTag(s.Iter), Kind: s.Kind, Src: s.Src, Val: oracleEncodeSet(set)}
	}
	return oracleMsg[float64]{Tag: prefix + oracleValTag(s.Iter), Kind: s.Kind, Src: s.Src, Val: s.Val}
}

// probe is what the differential compares beyond the runtime's Result.
type probe interface {
	Machine
	Path() []tree.VertexID
	Histories() (pathsFinder, projection []float64)
	DeliveryBudget() int
}

// TestMatchesMapAndStringOracle: the indexed implementation and the parent's
// map-and-string one (oracle_test.go) execute identically — the same
// delivery count, causal depth, outputs, decoded paths and per-phase value
// histories — for honest fleets and beside a Byzantine flood seat, under
// every scheduler.
func TestMatchesMapAndStringOracle(t *testing.T) {
	n, tc := 4, 1
	byz := PartyID(n - 1)
	schedulers := map[string]func(seed int64) Scheduler{
		"fifo":   func(int64) Scheduler { return FIFO{} },
		"lifo":   func(int64) Scheduler { return LIFO{} },
		"random": func(seed int64) Scheduler { return Random{Rng: rand.New(rand.NewSource(seed))} },
		"starve": func(int64) Scheduler { return Starve{Victims: map[PartyID]bool{1: true}} },
	}
	for shape, tr := range map[string]*tree.Tree{
		"path:64": tree.NewPath(64), "spider:3:3": tree.NewSpider(3, 3), "star:6": tree.NewStar(6),
	} {
		inputs := spreadInputs(tr, n)
		ref, err := NewPipeline(tr, n, tc, 0, inputs[0])
		if err != nil {
			t.Fatal(err)
		}
		pf, pj := ref.Iterations()
		for seed := int64(1); seed <= 5; seed++ {
			for name, sched := range schedulers {
				for _, flood := range []bool{false, true} {
					// run builds one fleet from the given constructor and
					// payload rendering and executes it.
					run := func(build func(i int) (probe, error), render func(byte, Step[float64]) any) (*Result, []probe) {
						ms, probes := make([]Machine, n), make([]probe, n)
						cfg := Config{N: n, Scheduler: sched(seed)}
						for i := range ms {
							p, err := build(i)
							if err != nil {
								t.Fatal(err)
							}
							ms[i], probes[i] = p, p
							cfg.MaxDeliveries = p.DeliveryBudget() + 4*300*n
						}
						if flood {
							ms[byz] = &floodSeat{id: byz, n: n, iters: [2]int{pf, pj}, budget: 300,
								rng: rand.New(rand.NewSource(seed * 77)), render: render}
							probes = probes[:byz]
							cfg.Honest = map[PartyID]bool{0: true, 1: true, 2: true}
						}
						res, err := Run(cfg, ms)
						if err != nil {
							t.Fatalf("%s seed %d %s flood=%v: %v", shape, seed, name, flood, err)
						}
						return res, probes
					}
					got, gotProbes := run(func(i int) (probe, error) { return NewPipeline(tr, n, tc, PartyID(i), inputs[i]) },
						wirePayload)
					want, wantProbes := run(func(i int) (probe, error) { return newOraclePipeline(tr, n, tc, PartyID(i), inputs[i]) },
						renderOracle)

					ctx := fmt.Sprintf("%s seed %d %s flood=%v", shape, seed, name, flood)
					if got.Deliveries != want.Deliveries || got.Depth != want.Depth {
						t.Errorf("%s: %d deliveries at depth %d, oracle %d at depth %d",
							ctx, got.Deliveries, got.Depth, want.Deliveries, want.Depth)
					}
					if !reflect.DeepEqual(got.Outputs, want.Outputs) {
						t.Errorf("%s: outputs %v, oracle %v", ctx, got.Outputs, want.Outputs)
					}
					for i := range gotProbes {
						if g, w := gotProbes[i].Path(), wantProbes[i].Path(); !reflect.DeepEqual(g, w) {
							t.Errorf("%s: party %d path %v, oracle %v", ctx, i, g, w)
						}
						g1, g2 := gotProbes[i].Histories()
						w1, w2 := wantProbes[i].Histories()
						if !reflect.DeepEqual(g1, w1) || !reflect.DeepEqual(g2, w2) {
							t.Errorf("%s: party %d histories %v / %v, oracle %v / %v", ctx, i, g1, g2, w1, w2)
						}
					}
				}
			}
		}
	}
}

// TestInvalidStepsCostNothing floods one honest party, before and after its
// projection phase exists, with every kind of step the iteration budget
// rules out — iterations outside [1, iters], broadcasters and named senders
// outside [0, n), unknown kinds and phases, unsorted and duplicated sender
// sets — and asserts the party allocates nothing for any of them, answers
// none, and still decides with its honest peers.
func TestInvalidStepsCostNothing(t *testing.T) {
	tr := tree.NewSpider(3, 3)
	n, tc := 4, 1
	inputs := spreadInputs(tr, n)
	ms, budget := pipelineFleet(t, tr, n, tc, inputs)
	victim := ms[0].(*Pipeline)
	pf, pj := victim.Iterations()

	var junk []Message
	for _, phase := range []byte{PhasePathsFinder, PhaseProjection, 0, 3} {
		iters := pf
		if phase == PhaseProjection {
			iters = pj
		}
		for _, p := range []any{
			wire.AsyncValue{Phase: phase, Kind: KindInit, Iter: iters + 1, Src: 3, Val: 1},
			wire.AsyncValue{Phase: phase, Kind: KindEcho, Iter: 1_000_000_000, Src: 2, Val: 1},
			wire.AsyncValue{Phase: phase, Kind: KindReady, Iter: 0, Src: 2, Val: 1},
			wire.AsyncValue{Phase: phase, Kind: KindEcho, Iter: -1, Src: 2, Val: 1},
			wire.AsyncValue{Phase: phase, Kind: KindEcho, Iter: 1, Src: PartyID(n), Val: 1},
			wire.AsyncValue{Phase: phase, Kind: KindEcho, Iter: 1, Src: -1, Val: 1},
			wire.AsyncValue{Phase: phase, Kind: 0, Iter: 1, Src: 2, Val: 1},
			wire.AsyncValue{Phase: phase, Kind: 4, Iter: 1, Src: 2, Val: 1},
			wire.AsyncReport{Phase: phase, Kind: KindInit, Iter: iters + 1, Src: 3, Senders: []PartyID{0, 1}},
			wire.AsyncReport{Phase: phase, Kind: KindInit, Iter: 1, Src: 3, Senders: []PartyID{1, 0}},
			wire.AsyncReport{Phase: phase, Kind: KindInit, Iter: 1, Src: 3, Senders: []PartyID{0, 0}},
			wire.AsyncReport{Phase: phase, Kind: KindInit, Iter: 1, Src: 3, Senders: []PartyID{0, PartyID(n)}},
			wire.AsyncReport{Phase: phase, Kind: KindInit, Iter: 1, Src: 3, Senders: []PartyID{-1, 0}},
		} {
			junk = append(junk, Message{From: 3, To: 0, Payload: p})
		}
	}
	flood := func(when string) {
		t.Helper()
		for _, m := range junk {
			if out := victim.Deliver(m); len(out) != 0 {
				t.Fatalf("%s: %+v answered with %v", when, m.Payload, out)
			}
		}
		if a := testing.AllocsPerRun(10, func() {
			for _, m := range junk {
				victim.Deliver(m)
			}
		}); a != 0 {
			t.Errorf("%s: %d invalid steps cost %v allocations, want 0", when, len(junk), a)
		}
		if len(victim.buf2) != 0 {
			t.Errorf("%s: %d invalid steps buffered for the projection phase", when, len(victim.buf2))
		}
	}

	// Three floods: while projection traffic is still being buffered, the
	// moment the projection phase exists, and after the decision.
	ms[0] = floodedMachine{victim, func() { flood("mid-run") }}
	flood("before any honest traffic")
	res, err := Run(Config{N: n, MaxDeliveries: budget, Scheduler: Random{Rng: rand.New(rand.NewSource(11))}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	checkAsyncTreeAA(t, tr, inputs, []PartyID{0, 1, 2, 3}, res.Outputs, "flooded")
	flood("after deciding")
}

// floodedMachine calls between once, right after the delivery that starts
// the pipeline's projection phase.
type floodedMachine struct {
	*Pipeline
	between func()
}

func (m floodedMachine) Deliver(msg Message) []Message {
	started := m.phase2 != nil
	out := m.Pipeline.Deliver(msg)
	if !started && m.phase2 != nil { // the delivery that started projection
		m.between()
	}
	return out
}
