package chaos

import (
	"testing"
	"time"

	"treeaa/internal/async"
	"treeaa/internal/cli"
	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

// runAsync runs one honest async cell — n = 4, t = 1, seed 1, spread
// inputs — over loopback TCP with the adversary spec's link clauses
// injected under every link, and judges the decided vertices for validity
// and 1-agreement. idle bounds the silence between arrivals at any seat (it
// rides transport.Options.RoundTimeout): a liveness watchdog for wedged
// runs, never a per-round barrier.
func runAsync(t *testing.T, space, adv string, idle time.Duration) (*transport.AsyncResult, *metrics.ChaosStats) {
	t.Helper()
	const n, tc, seed = 4, 1, 1
	sp, err := cli.ParseSpaceSpec(space, seed)
	if err != nil {
		t.Fatal(err)
	}
	inputs := sp.SpreadInputs(n)
	machines := make([]driver.EventMachine, n)
	for i := range machines {
		if machines[i], _, err = sp.NewAsyncMachine(n, tc, sim.PartyID(i), inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stats := &metrics.ChaosStats{}
	res, err := transport.AsyncLocalCluster(n, machines, NewInjector(mustPlan(adv, n), seed, stats).Apply(transport.Options{
		SetupTimeout: 10 * time.Second, RoundTimeout: idle,
	}))
	if err != nil {
		t.Fatalf("%s under %s: %v", space, adv, err)
	}
	outputs := make(map[sim.PartyID]tree.VertexID, n)
	for p, out := range res.Outputs {
		v, ok := out.(tree.VertexID)
		if !ok {
			t.Fatalf("%s under %s: party %d output %T, want tree.VertexID", space, adv, p, out)
		}
		outputs[p] = v
	}
	if maxDist, validity, _ := sp.Judge(inputs, nil, outputs); len(validity) > 0 || maxDist > 1 {
		t.Fatalf("%s under %s: validity %v, max distance %d", space, adv, validity, maxDist)
	}
	return res, stats
}

func TestAsyncSoakQuiet(t *testing.T) {
	res, stats := runAsync(t, "path:16", "none", 20*time.Second)
	if stats.Delays.Load()+stats.Stalls.Load()+stats.Partitions.Load() != 0 {
		t.Errorf("empty plan injected faults: %+v", stats)
	}
	if res.Deliveries == 0 || res.Messages == 0 || res.Bytes == 0 {
		t.Errorf("no traffic recorded: %+v", res)
	}
}

func TestAsyncSoakSmallLatency(t *testing.T) {
	if _, stats := runAsync(t, "star:6", "lat(base=300us,jitter=300us)", 20*time.Second); stats.Delays.Load() == 0 {
		t.Error("latency plan delayed nothing")
	}
}

// TestAsyncSoakDrop: a dropped connection is repaired underneath the
// event-driven driver by the same count-exchange resume as in sync mode —
// nothing in it is keyed on rounds — so the run decides valid and
// 1-agreeing with the drop injected and the link reconnected, on a tree and
// on a block graph. The p0→p2 drop at iteration 2 lands late, after p2 has
// typically announced and p0 has discarded what it had staged for p2: the
// resume must count only what p0 actually numbered for it.
func TestAsyncSoakDrop(t *testing.T) {
	for _, space := range []string{"path:16", "graph:cliquechain:3:4"} {
		for _, plan := range []string{"drop(from=0,to=2,round=1)", "drop(from=0,to=2,round=2)", "drop(from=2,round=3)"} {
			_, stats := runAsync(t, space, plan, 20*time.Second)
			if stats.Drops.Load() < 1 || stats.Reconnects.Load() < 1 {
				t.Errorf("%s under %s: %d drops, %d reconnects, want ≥ 1 of each", space, plan, stats.Drops.Load(), stats.Reconnects.Load())
			}
		}
	}
}

// TestAsyncQuietTCPMatchesInProcess: over a real quiet TCP mesh with t=0,
// every decided vertex is byte-identical to the in-process FIFO execution —
// with all n senders in every report the update is delivery-order
// independent, so the network cannot change the decision.
func TestAsyncQuietTCPMatchesInProcess(t *testing.T) {
	for _, shape := range []string{"star:6", "spider:3:3"} {
		sp, err := cli.ParseSpaceSpec(shape, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		tr, inputs := sp.Tree, sp.SpreadInputs(n)

		build := func() ([]driver.EventMachine, int) {
			ms := make([]driver.EventMachine, n)
			budget := 0
			for i := range ms {
				p, err := async.NewPipeline(tr, n, 0, async.PartyID(i), inputs[i])
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

		inproc, budget := build()
		ims := make([]async.Machine, n)
		for i := range ims {
			ims[i] = inproc[i].(async.Machine)
		}
		want, err := async.Run(async.Config{N: n, MaxDeliveries: budget}, ims)
		if err != nil {
			t.Fatalf("%s: in-process run: %v", shape, err)
		}

		netm, _ := build()
		got, err := transport.AsyncLocalCluster(n, netm, transport.Options{
			SetupTimeout: 10 * time.Second, RoundTimeout: 20 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: networked run: %v", shape, err)
		}
		for p := 0; p < n; p++ {
			w := want.Outputs[async.PartyID(p)].(tree.VertexID)
			g, ok := got.Outputs[sim.PartyID(p)].(tree.VertexID)
			if !ok || g != w {
				t.Errorf("%s: party %d decided %v over TCP, %v in-process", shape, p, got.Outputs[sim.PartyID(p)], w)
			}
		}
	}
}

// TestAsyncDecidesWhereSyncTimesOut is the headline battery cell: under
// heavy scoped latency — every frame out of p2 held 50..350ms — the
// synchronous deployment's round barrier cannot be met within its timeout
// and the run aborts, while the asynchronous deployment under the very
// same plan and seed just keeps delivering whatever arrives and decides
// with validity and 1-agreement.
func TestAsyncDecidesWhereSyncTimesOut(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second latency soak")
	}
	const plan = "lat(base=200ms,jitter=150ms,from=2)"
	const shape = "star:3"

	sp, err := cli.ParseSpaceSpec(shape, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n, tc = 4, 1
	inputs := sp.SpreadInputs(n)
	machines := make([]sim.Machine, n)
	for i := range machines {
		if machines[i], _, err = sp.NewMachine(n, tc, sim.PartyID(i), inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	_, syncErr := transport.LocalCluster(sim.Config{N: n, MaxCorrupt: tc, MaxRounds: sp.Rounds() + 2}, machines,
		NewInjector(mustPlan(plan, n), 1, nil).Apply(transport.Options{
			SetupTimeout: 10 * time.Second, RoundTimeout: 40 * time.Millisecond,
		}))
	if syncErr == nil {
		t.Fatalf("sync run survived %s under a 40ms round budget", plan)
	}

	res, stats := runAsync(t, shape, plan, 30*time.Second)
	if stats.Delays.Load() == 0 {
		t.Error("latency plan delayed nothing in the async run")
	}
	t.Logf("sync aborted (%v); async decided: %d deliveries, %d delayed frames",
		syncErr, res.Deliveries, stats.Delays.Load())
}
