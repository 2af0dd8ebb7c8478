package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// newMachines builds one execution's n machines on tr.
func newMachines(t testing.TB, tr *tree.Tree, n, tc int) []sim.Machine {
	t.Helper()
	machines := make([]sim.Machine, n)
	for i := range machines {
		m, err := NewMachine(Config{
			Tree: tr, N: n, T: tc, ID: sim.PartyID(i),
			Input: tree.VertexID(i * (tr.NumVertices() - 1) / (n - 1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

// TestNewMachineAllocatesNothingPerVertex: the Euler list, the LCA table and
// the diameter belong to the Tree, so once it has compiled them a party's
// machine costs the same few small objects on 4,096 vertices as on 64.
// Before the tables moved onto the Tree the 16 machines of this execution
// allocated ≈ 18 MB (a list and a sparse table each, plus the BFS queues).
// The same holds on a path-shaped space, where the Section 4 shortcut numbers
// positions along the Tree's own canonical diameter path: 16 private
// oriented copies of it were 512 KiB.
func TestNewMachineAllocatesNothingPerVertex(t *testing.T) {
	const n, tc = 16, 5
	random := func(size int) *tree.Tree { return tree.NewRandom(size, rand.New(rand.NewSource(1))) }
	for _, shape := range []struct {
		name string
		mk   func(size int) *tree.Tree
	}{{"random", random}, {"path", tree.NewPath}} {
		small, large := machineBytes(t, shape.mk(64), n, tc), machineBytes(t, shape.mk(4096), n, tc)
		// Under a byte per vertex per machine: a single per-vertex array in
		// any of the 16 machines (32 KiB as []int) would not fit. The
		// 64-vertex figure is the same ≈ 1 KiB per machine.
		if large >= 16*4096 || large > 2*small {
			t.Errorf("%s: 16 machines allocate %d bytes on 4096 vertices and %d on 64: something still scales with |V|", shape.name, large, small)
		}
	}
}

// machineBytes is what building one execution's n machines on an already
// compiled tr allocates.
func machineBytes(t *testing.T, tr *tree.Tree, n, tc int) uint64 {
	Rounds(tr, tc) // first use compiles the tree
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	machines := newMachines(t, tr, n, tc)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(machines)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFirstUseUnderContention: 8 goroutines build their machine on a tree
// nobody has queried; exactly one of them compiles it, and every machine
// holds the same shared list. Run under -race (make check does).
func TestFirstUseUnderContention(t *testing.T) {
	tr := tree.NewRandom(2048, rand.New(rand.NewSource(2)))
	const n, tc = 8, 2
	machines := make([]*Machine, n)
	var wg sync.WaitGroup
	for i := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewMachine(Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i), Input: tree.VertexID(i * 200)})
			if err != nil {
				t.Error(err)
				return
			}
			machines[i] = m
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	shared, err := tree.ListConstruction(tr, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range machines {
		if m.PathsFinderMachine().List() != shared {
			t.Errorf("party %d holds a private Euler list", i)
		}
	}
}

// TestRunBatchSharesOneTree: concurrent executions over one never-queried
// Tree compile it once between them and return what sequential runs return.
func TestRunBatchSharesOneTree(t *testing.T) {
	const n, tc, execs = 7, 2, 6
	mk := func() *tree.Tree { return tree.NewRandom(300, rand.New(rand.NewSource(3))) }
	shared, reference := mk(), mk()
	cfgs := make([]sim.Config, execs)
	for i := range cfgs {
		cfgs[i] = sim.Config{N: n, MaxCorrupt: tc, MaxRounds: Rounds(reference, tc) + 2}
	}
	got, err := sim.RunBatch(cfgs, func(int) []sim.Machine { return newMachines(t, shared, n, tc) })
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfgs[0], newMachines(t, reference, n, tc))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("execution %d over the shared tree diverged from the sequential run", i)
		}
	}
}

// TestNewMachineAllocations: building one party's machine on a compiled
// tree costs at most 12 allocations, on a path space (the Section 5 phase
// alone) and on any other tree (PathsFinder). The RealAA machine inside
// embeds its tally and shares its tag set with every machine of the same
// tag, so neither is allocated per machine.
func TestNewMachineAllocations(t *testing.T) {
	const n, tc, limit = 16, 5, 12
	for _, tr := range []*tree.Tree{tree.NewRandom(4096, rand.New(rand.NewSource(1))), tree.NewPath(1024)} {
		Rounds(tr, tc) // first use compiles the tree
		cfg := Config{Tree: tr, N: n, T: tc, ID: 3, Input: 7}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewMachine(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("path space %v: NewMachine allocates %v times, want at most %d", tr.IsPath(), allocs, limit)
		}
		t.Logf("path space %v: %v allocations", tr.IsPath(), allocs)
	}
}
