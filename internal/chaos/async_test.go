package chaos

import (
	"strings"
	"testing"
	"time"

	"treeaa/internal/async"
	"treeaa/internal/cli"
	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

func asyncSpec(tr, plan string) AsyncRunSpec {
	return AsyncRunSpec{
		Tree: tr, N: 4, T: 1, Seed: 1, Plan: plan,
		SetupTimeout: 10 * time.Second, IdleTimeout: 20 * time.Second,
	}
}

func mustPassAsync(t *testing.T, rep *AsyncReport) {
	t.Helper()
	if !rep.Passed() {
		t.Fatalf("async cell failed: valid=%v maxDist=%d err=%q", rep.Valid, rep.MaxDist, rep.Err)
	}
}

func TestAsyncSoakQuiet(t *testing.T) {
	rep, err := RunAsync(asyncSpec("path:16", ""))
	if err != nil {
		t.Fatal(err)
	}
	mustPassAsync(t, rep)
	if rep.Delays+rep.Stalls+rep.Partitions != 0 {
		t.Errorf("empty plan injected faults: %+v", rep)
	}
	if rep.Deliveries == 0 || rep.Messages == 0 || rep.Bytes == 0 {
		t.Errorf("no traffic recorded: %+v", rep)
	}
}

func TestAsyncSoakSmallLatency(t *testing.T) {
	rep, err := RunAsync(asyncSpec("star:6", "lat:300µs±300µs"))
	if err != nil {
		t.Fatal(err)
	}
	mustPassAsync(t, rep)
	if rep.Delays == 0 {
		t.Error("latency plan delayed nothing")
	}
}

// TestAsyncSoakDrop: a dropped connection is repaired underneath the
// event-driven driver by the same seq/ack resume as in sync mode — nothing
// in it is keyed on rounds — so the run decides valid and 1-agreeing with
// the drop injected and the link reconnected, on a tree and on a block
// graph.
func TestAsyncSoakDrop(t *testing.T) {
	for _, space := range []string{"path:16", "graph:cliquechain:3:4"} {
		for _, plan := range []string{"drop:p0-p2@r2", "drop:p2@r3"} {
			rep, err := RunAsync(asyncSpec(space, plan))
			if err != nil {
				t.Fatal(err)
			}
			mustPassAsync(t, rep)
			if rep.Drops < 1 || rep.Reconnects < 1 {
				t.Errorf("%s under %s: %d drops, %d reconnects, want ≥ 1 of each", space, plan, rep.Drops, rep.Reconnects)
			}
		}
	}
}

// TestAsyncSoakRejectsDestructivePlans: the crash clause is refused up front
// with an error naming the mode and the clause family — a restarted
// event-driven seat has no round history to replay.
func TestAsyncSoakRejectsDestructivePlans(t *testing.T) {
	_, err := RunAsync(asyncSpec("path:16", "crash:p1@r2"))
	if err == nil {
		t.Fatal("RunAsync accepted the crash clause")
	}
	for _, want := range []string{"-mode async", "crash"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("crash rejection %q does not name %q", err, want)
		}
	}
	if _, err := RunAsync(asyncSpec("path:16", "jam:5ms")); err == nil {
		t.Error("RunAsync accepted an unknown clause")
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
	const plan = "lat:200ms±150ms@p2"
	const shape = "star:3"

	sync, err := Run(RunSpec{
		Tree: shape, N: 4, T: 1, Seed: 1, Plan: plan, Adversary: "none",
		SetupTimeout: 10 * time.Second, RoundTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sync.Err == "" {
		t.Fatalf("sync run survived %s under a 40ms round budget: %+v", plan, sync)
	}

	as, err := RunAsync(AsyncRunSpec{
		Tree: shape, N: 4, T: 1, Seed: 1, Plan: plan,
		SetupTimeout: 10 * time.Second, IdleTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustPassAsync(t, as)
	if as.Delays == 0 {
		t.Error("latency plan delayed nothing in the async run")
	}
	t.Logf("sync aborted (%s); async decided: %d deliveries, %d delayed frames, maxDist %d",
		sync.Err, as.Deliveries, as.Delays, as.MaxDist)
}
