package async

import (
	"math"
	"math/rand"
	"testing"

	"treeaa/internal/tree"
)

// byzFlood is a Byzantine machine that floods random well-formed RBC
// traffic (including equivocating its own value broadcasts and malformed
// reports) for a bounded number of deliveries, then goes quiet.
type byzFlood struct {
	id     PartyID
	n      int
	rng    *rand.Rand
	budget int
}

func (m *byzFlood) Init() []Message {
	var out []Message
	// Equivocate the iteration-1 value broadcast.
	for to := 0; to < m.n; to++ {
		out = append(out, Message{To: PartyID(to), Payload: Step[float64]{
			Kind: KindInit, Iter: 1, Src: m.id, Val: float64(m.rng.Intn(3) * 1000),
		}})
	}
	return out
}

func (m *byzFlood) Deliver(Message) []Message {
	if m.budget <= 0 {
		return nil
	}
	m.budget--
	var out []Message
	switch m.rng.Intn(4) {
	case 0:
		out = append(out, Message{To: PartyID(m.rng.Intn(m.n)), Payload: Step[float64]{
			Kind: byte(1 + m.rng.Intn(3)), Iter: 1 + m.rng.Intn(3),
			Src: m.id, Val: float64(m.rng.Intn(2000) - 500),
		}})
	case 1:
		out = append(out, Message{To: Broadcast, Payload: Step[float64]{
			Report: true, Kind: KindInit, Iter: 1 + m.rng.Intn(3), Src: m.id, Senders: []PartyID{1, 0, PartyID(m.n)},
		}})
	case 2:
		out = append(out, Message{To: Broadcast, Payload: Step[float64]{
			Report: true, Kind: KindInit, Iter: 1, Src: m.id, Senders: []PartyID{0},
		}})
	}
	return out
}

func (m *byzFlood) Output() (any, bool) { return nil, true }

func checkRealAA(t *testing.T, outputs map[PartyID]any, honest []PartyID, lo, hi, eps float64, ctx string) {
	t.Helper()
	var vals []float64
	for _, p := range honest {
		raw, ok := outputs[p]
		if !ok {
			t.Fatalf("%s: party %d undecided", ctx, p)
		}
		v := raw.(float64)
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Errorf("%s: validity violated: %v outside [%v,%v]", ctx, v, lo, hi)
		}
		vals = append(vals, v)
	}
	for i := range vals {
		for j := range vals {
			if d := math.Abs(vals[i] - vals[j]); d > eps+1e-9 {
				t.Errorf("%s: agreement violated: %v vs %v", ctx, vals[i], vals[j])
			}
		}
	}
}

func TestAsyncRealAAHonest(t *testing.T) {
	n, tc := 4, 1
	inputs := []float64{0, 64, 32, 16}
	iters := HalvingIterations(64, 1)
	for name, sched := range map[string]Scheduler{
		"fifo": FIFO{}, "lifo": LIFO{},
		"random": Random{Rng: rand.New(rand.NewSource(5))},
	} {
		machines := make([]Machine, n)
		for i := 0; i < n; i++ {
			machines[i] = NewRealAA(n, tc, PartyID(i), inputs[i], iters)
		}
		res, err := Run(Config{N: n, MaxDeliveries: 500000, Scheduler: sched}, machines)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRealAA(t, res.Outputs, []PartyID{0, 1, 2, 3}, 0, 64, 1, name)
		if res.Depth <= 0 {
			t.Errorf("%s: depth = %d", name, res.Depth)
		}
	}
}

func TestAsyncRealAAUnderByzantineFlood(t *testing.T) {
	n, tc := 4, 1
	inputs := []float64{0, 64, 32, 0}
	iters := HalvingIterations(64, 1)
	for seed := int64(0); seed < 10; seed++ {
		machines := make([]Machine, n)
		for i := 0; i < n-1; i++ {
			machines[i] = NewRealAA(n, tc, PartyID(i), inputs[i], iters)
		}
		machines[3] = &byzFlood{id: 3, n: n, rng: rand.New(rand.NewSource(seed)), budget: 500}
		res, err := Run(Config{
			N: n, MaxDeliveries: 500000,
			Honest:    map[PartyID]bool{0: true, 1: true, 2: true},
			Scheduler: Random{Rng: rand.New(rand.NewSource(seed + 100))},
		}, machines)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkRealAA(t, res.Outputs, []PartyID{0, 1, 2}, 0, 64, 1, "flood")
	}
}

func TestAsyncRealAAUnderStarvation(t *testing.T) {
	// Starving one honest party's links delays but cannot block progress.
	n, tc := 4, 1
	inputs := []float64{0, 64, 32, 16}
	iters := HalvingIterations(64, 1)
	machines := make([]Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = NewRealAA(n, tc, PartyID(i), inputs[i], iters)
	}
	res, err := Run(Config{
		N: n, MaxDeliveries: 500000,
		Scheduler: Starve{Victims: map[PartyID]bool{2: true}},
	}, machines)
	if err != nil {
		t.Fatal(err)
	}
	checkRealAA(t, res.Outputs, []PartyID{0, 1, 2, 3}, 0, 64, 1, "starve")
}

func TestAsyncTreeAAHonest(t *testing.T) {
	tr := tree.NewPath(33)
	n, tc := 4, 1
	inputs := []tree.VertexID{0, 32, 16, 8}
	d, _, _ := tr.Diameter()
	iters := TreeIterations(d)
	machines := make([]Machine, n)
	for i := 0; i < n; i++ {
		machines[i] = NewTreeAA(tr, n, tc, PartyID(i), inputs[i], iters)
	}
	res, err := Run(Config{N: n, MaxDeliveries: 500000, Scheduler: Random{Rng: rand.New(rand.NewSource(9))}}, machines)
	if err != nil {
		t.Fatal(err)
	}
	checkAsyncTreeAA(t, tr, inputs, []PartyID{0, 1, 2, 3}, res.Outputs, "honest")
}

func checkAsyncTreeAA(t *testing.T, tr *tree.Tree, inputs []tree.VertexID, honest []PartyID, outputs map[PartyID]any, ctx string) {
	t.Helper()
	var honestIn []tree.VertexID
	for _, p := range honest {
		honestIn = append(honestIn, inputs[p])
	}
	hull := make(map[tree.VertexID]bool)
	for _, v := range tr.ConvexHull(honestIn) {
		hull[v] = true
	}
	var outs []tree.VertexID
	for _, p := range honest {
		raw, ok := outputs[p]
		if !ok {
			t.Fatalf("%s: party %d undecided", ctx, p)
		}
		v := raw.(tree.VertexID)
		if !hull[v] {
			t.Errorf("%s: validity violated at party %d (%s)", ctx, p, tr.Label(v))
		}
		outs = append(outs, v)
	}
	for i := range outs {
		for j := i + 1; j < len(outs); j++ {
			if d := tr.Dist(outs[i], outs[j]); d > 1 {
				t.Errorf("%s: 1-agreement violated: %s vs %s", ctx, tr.Label(outs[i]), tr.Label(outs[j]))
			}
		}
	}
}

// byzTreeFlood equivocates vertex broadcasts on a tree.
type byzTreeFlood struct {
	id  PartyID
	n   int
	tr  *tree.Tree
	rng *rand.Rand
}

func (m *byzTreeFlood) Init() []Message {
	var out []Message
	for to := 0; to < m.n; to++ {
		out = append(out, Message{To: PartyID(to), Payload: Step[tree.VertexID]{
			Kind: KindInit, Iter: 1, Src: m.id,
			Val: tree.VertexID(m.rng.Intn(m.tr.NumVertices())),
		}})
	}
	return out
}

func (m *byzTreeFlood) Deliver(msg Message) []Message {
	// Echo honestly so honest broadcasts complete, but equivocate its own
	// per-iteration value by replying with fresh INITs occasionally.
	if m.rng.Intn(10) != 0 {
		return nil
	}
	k := 1 + m.rng.Intn(4)
	return []Message{{To: PartyID(m.rng.Intn(m.n)), Payload: Step[tree.VertexID]{
		Kind: KindInit, Iter: k, Src: m.id,
		Val: tree.VertexID(m.rng.Intn(m.tr.NumVertices())),
	}}}
}

func (m *byzTreeFlood) Output() (any, bool) { return nil, true }

func TestAsyncTreeAAUnderByzantine(t *testing.T) {
	tr := tree.NewSpider(3, 8)
	n, tc := 4, 1
	inputs := []tree.VertexID{0, 8, 16, 0}
	d, _, _ := tr.Diameter()
	iters := TreeIterations(d)
	for seed := int64(0); seed < 10; seed++ {
		machines := make([]Machine, n)
		for i := 0; i < n-1; i++ {
			machines[i] = NewTreeAA(tr, n, tc, PartyID(i), inputs[i], iters)
		}
		machines[3] = &byzTreeFlood{id: 3, n: n, tr: tr, rng: rand.New(rand.NewSource(seed))}
		res, err := Run(Config{
			N: n, MaxDeliveries: 500000,
			Honest:    map[PartyID]bool{0: true, 1: true, 2: true},
			Scheduler: Random{Rng: rand.New(rand.NewSource(seed + 50))},
		}, machines)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAsyncTreeAA(t, tr, inputs, []PartyID{0, 1, 2}, res.Outputs, "byz")
	}
}

func TestAsyncDepthScalesWithLogD(t *testing.T) {
	// The async protocol's causal depth grows ~ linearly in iterations =
	// O(log D): doubling D several times adds a bounded number of depth
	// units per doubling.
	n, tc := 4, 1
	depth := func(d float64) int {
		inputs := []float64{0, d, d / 2, d / 4}
		iters := HalvingIterations(d, 1)
		machines := make([]Machine, n)
		for i := 0; i < n; i++ {
			machines[i] = NewRealAA(n, tc, PartyID(i), inputs[i], iters)
		}
		res, err := Run(Config{N: n, MaxDeliveries: 2000000}, machines)
		if err != nil {
			t.Fatal(err)
		}
		return res.Depth
	}
	d16, d256 := depth(16), depth(256)
	if d256 <= d16 {
		t.Errorf("depth did not grow with D: %d vs %d", d16, d256)
	}
	// 4 extra halving iterations cost a bounded number of depth units each.
	if d256-d16 > 4*12 {
		t.Errorf("depth grew too fast: %d -> %d", d16, d256)
	}
}

func TestHalvingAndTreeIterations(t *testing.T) {
	if HalvingIterations(1, 1) != 0 {
		t.Error("no iterations needed for D <= eps")
	}
	if got := HalvingIterations(64, 1); got != 7 {
		t.Errorf("HalvingIterations(64,1) = %d, want 7", got)
	}
	if TreeIterations(1) != 0 {
		t.Error("trivial tree needs no iterations")
	}
	if got := TreeIterations(16); got != 6 {
		t.Errorf("TreeIterations(16) = %d, want 6", got)
	}
}
