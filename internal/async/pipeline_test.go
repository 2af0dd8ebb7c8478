package async

import (
	"math/rand"
	"reflect"
	"testing"

	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// spreadInputs places n inputs evenly across the vertex id range (the
// cli.SpreadInputs placement; cli imports this package, so tests here build
// their trees and inputs directly).
func spreadInputs(tr *tree.Tree, n int) []tree.VertexID {
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		inputs[i] = tree.VertexID(i * (tr.NumVertices() - 1) / (n - 1))
	}
	return inputs
}

func pipelineFleet(t *testing.T, tr *tree.Tree, n, tc int, inputs []tree.VertexID) ([]Machine, int) {
	t.Helper()
	ms := make([]Machine, n)
	budget := 0
	for i := 0; i < n; i++ {
		p, err := NewPipeline(tr, n, tc, PartyID(i), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = p
		if b := p.DeliveryBudget(); b > budget {
			budget = b
		}
	}
	return ms, budget
}

// TestPipelineShapes: the full two-phase TreeAA pipeline (PathsFinder over
// the Euler list, then projection onto the decided path) upholds validity
// and 1-agreement on every tree shape under every scheduler.
func TestPipelineShapes(t *testing.T) {
	n, tc := 4, 1
	for shape, tr := range map[string]*tree.Tree{
		"path:8": tree.NewPath(8), "star:6": tree.NewStar(6), "spider:3:3": tree.NewSpider(3, 3),
	} {
		inputs := spreadInputs(tr, n)
		for name, sched := range map[string]Scheduler{
			"fifo":   FIFO{},
			"lifo":   LIFO{},
			"random": Random{Rng: rand.New(rand.NewSource(7))},
			"starve": Starve{Victims: map[PartyID]bool{1: true}},
		} {
			ms, budget := pipelineFleet(t, tr, n, tc, inputs)
			res, err := Run(Config{N: n, MaxDeliveries: budget, Scheduler: sched}, ms)
			if err != nil {
				t.Fatalf("%s/%s: %v", shape, name, err)
			}
			checkAsyncTreeAA(t, tr, inputs, []PartyID{0, 1, 2, 3}, res.Outputs, shape+"/"+name)
			for i, m := range ms {
				p := m.(*Pipeline)
				if len(p.Path()) == 0 {
					t.Errorf("%s/%s: party %d skipped the projection phase", shape, name, i)
				}
			}
		}
	}
}

// TestPipelineTrivialTree: diameter <= 1 needs no protocol at all — every
// party is decided on its own input at construction.
func TestPipelineTrivialTree(t *testing.T) {
	tr := tree.NewPath(2)
	inputs := []tree.VertexID{0, 1, 0, 1}
	ms, budget := pipelineFleet(t, tr, 4, 1, inputs)
	for i, m := range ms {
		if msgs := m.Init(); len(msgs) != 0 {
			t.Errorf("party %d sent %d messages on a trivial tree", i, len(msgs))
		}
		raw, done := m.Output()
		if !done || raw.(tree.VertexID) != inputs[i] {
			t.Errorf("party %d: output %v, %v; want own input %v", i, raw, done, inputs[i])
		}
	}
	if budget <= 0 {
		t.Error("trivial pipeline has no delivery budget slack")
	}
	// The runtime reports decisions made without any delivery.
	res, err := Run(Config{N: 4, MaxDeliveries: budget}, ms)
	if err != nil || len(res.Outputs) != 4 || res.Deliveries != 0 {
		t.Errorf("Run on a trivial tree: %d outputs after %d deliveries, err %v", len(res.Outputs), res.Deliveries, err)
	}
}

// TestAsyncMatchesSyncOnQuietNet is the differential anchor: with no
// faults (t=0) and deterministic FIFO scheduling, every async report names
// all n senders, so the decided values are delivery-order independent —
// and they must land within the agreement tolerance (tree distance 1) of
// what the synchronous protocol decides from the same inputs. Path input
// spaces are excluded: there the synchronous machine runs the Section 4
// single-phase shortcut, a different algorithm whose decision point inside
// the hull need not coincide with the two-phase pipeline's (paths are
// still covered property-wise by TestPipelineShapes).
func TestAsyncMatchesSyncOnQuietNet(t *testing.T) {
	n := 4
	for shape, tr := range map[string]*tree.Tree{
		"star:6": tree.NewStar(6), "spider:3:3": tree.NewSpider(3, 3), "caterpillar:4:2": tree.NewCaterpillar(4, 2),
	} {
		for seed := int64(1); seed <= 5; seed++ {
			inputs := spreadInputs(tr, n)

			syncMachines := make([]sim.Machine, n)
			for i := range syncMachines {
				m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: 0,
					ID: sim.PartyID(i), Input: inputs[i]})
				if err != nil {
					t.Fatal(err)
				}
				syncMachines[i] = m
			}
			want, err := sim.Run(sim.Config{N: n, MaxRounds: core.Rounds(tr, 0) + 2}, syncMachines)
			if err != nil {
				t.Fatalf("%s seed %d: sync oracle: %v", shape, seed, err)
			}

			ms, budget := pipelineFleet(t, tr, n, 0, inputs)
			res, err := Run(Config{N: n, MaxDeliveries: budget}, ms)
			if err != nil {
				t.Fatalf("%s seed %d: async: %v", shape, seed, err)
			}
			checkAsyncTreeAA(t, tr, inputs, []PartyID{0, 1, 2, 3}, res.Outputs, shape)
			for p, raw := range res.Outputs {
				av := raw.(tree.VertexID)
				for q, sraw := range want.Outputs {
					sv := sraw.(tree.VertexID)
					if d := tr.Dist(av, sv); d > 1 {
						t.Errorf("%s seed %d: async party %d decided %s, sync party %d decided %s (dist %d > 1)",
							shape, seed, p, tr.Label(av), q, tr.Label(sv), d)
					}
				}
			}
		}
	}
}

// wireLoop is a pipeline whose every outgoing payload crosses the wire codec
// before the runtime sees it, as a networked fleet's traffic does.
type wireLoop struct {
	*Pipeline
	t *testing.T
}

func (m wireLoop) Init() []Message { return m.loop(m.Pipeline.Init()) }

func (m wireLoop) Deliver(msg Message) []Message { return m.loop(m.Pipeline.Deliver(msg)) }

func (m wireLoop) loop(msgs []Message) []Message {
	pf, pj := m.Iterations()
	for i := range msgs {
		b, err := wire.Encode(msgs[i].Payload)
		if err != nil {
			m.t.Fatalf("pipeline emitted %+v, which the codec refuses: %v", msgs[i].Payload, err)
		}
		back, err := wire.Decode(b)
		if err != nil || !reflect.DeepEqual(back, msgs[i].Payload) {
			m.t.Fatalf("round trip: %+v -> %+v, %v", msgs[i].Payload, back, err)
		}
		if r := m.EnvelopeRound(back); r < 1 || r > pf+pj {
			m.t.Fatalf("EnvelopeRound(%+v) = %d, outside [1, %d]", back, r, pf+pj)
		}
		msgs[i].Payload = back
	}
	return msgs
}

// TestPipelineWireRoundTrip: every payload a pipeline emits is a wire
// payload that survives the codec bit for bit, a fleet fed only decoded
// copies still decides correctly, and foreign payloads are ignored.
func TestPipelineWireRoundTrip(t *testing.T) {
	tr := tree.NewSpider(3, 3)
	n, tc := 4, 1
	inputs := spreadInputs(tr, n)
	ms, budget := pipelineFleet(t, tr, n, tc, inputs)
	for i, m := range ms {
		ms[i] = wireLoop{m.(*Pipeline), t}
	}
	res, err := Run(Config{N: n, MaxDeliveries: budget, Scheduler: Random{Rng: rand.New(rand.NewSource(3))}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	checkAsyncTreeAA(t, tr, inputs, []PartyID{0, 1, 2, 3}, res.Outputs, "wire loop")

	p := ms[0].(wireLoop).Pipeline
	for _, stray := range []any{"stray", Step[float64]{Kind: KindInit, Iter: 1, Src: 1, Val: 4.5},
		wire.AsyncValue{Phase: 3, Kind: KindInit, Iter: 1, Src: 1, Val: 4.5}} {
		if out := p.Deliver(Message{From: 1, Payload: stray}); len(out) != 0 {
			t.Errorf("pipeline answered foreign payload %+v with %v", stray, out)
		}
		if r := p.EnvelopeRound(stray); r != 1 {
			t.Errorf("EnvelopeRound(%+v) = %d, want 1", stray, r)
		}
	}
}
