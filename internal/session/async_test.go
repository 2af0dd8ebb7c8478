package session

import (
	"net"
	"strings"
	"testing"
	"time"

	"treeaa/internal/async"
	"treeaa/internal/cli"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

func asyncOptions() Options {
	return Options{Async: true, SetupTimeout: 10 * time.Second,
		RoundTimeout: 20 * time.Second, DrainTimeout: 5 * time.Second}
}

// judgeAsyncResult asserts the async serving contract on one decided
// Result: Rounds is the constant 1, and the outputs are valid (inside the
// input hull) and uphold the space's agreement guarantee.
func judgeAsyncResult(t *testing.T, spec Spec, n int, got *sim.Result, ctx string) {
	t.Helper()
	if got.Rounds != 1 {
		t.Errorf("%s: async Result.Rounds = %d, want the constant 1", ctx, got.Rounds)
	}
	sp, err := cli.ParseSpaceSpec(spec.Tree, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := sp.ParseInputs(spec.Inputs, n)
	if err != nil {
		t.Fatal(err)
	}
	outputs := make(map[sim.PartyID]tree.VertexID, len(got.Outputs))
	for p, raw := range got.Outputs {
		v, ok := raw.(tree.VertexID)
		if !ok {
			t.Fatalf("%s: party %d output is %T, not a vertex", ctx, p, raw)
		}
		outputs[p] = v
	}
	if len(outputs) != n {
		t.Fatalf("%s: %d outputs for %d parties", ctx, len(outputs), n)
	}
	_, validity, agreement := sp.Judge(inputs, nil, outputs)
	for _, v := range append(validity, agreement...) {
		t.Errorf("%s: async %s", ctx, v)
	}
}

// TestAsyncServeDecides: an async deployment serves sessions across tree
// shapes, a block graph, corruption budgets and origin daemons, and every
// decided Result upholds validity and 1-agreement. No oracle: asynchronous decisions
// legitimately depend on delivery order.
func TestAsyncServeDecides(t *testing.T) {
	cases := []struct {
		n    int
		spec Spec
	}{
		{3, Spec{Tree: "path:8"}},
		{3, Spec{Tree: "star:9"}},
		{4, Spec{Tree: "spider:3:4", T: 1}},
		{4, Spec{Tree: "random:12", Seed: 7, T: 1}},
		{4, Spec{Tree: "graph:cliquechain:3:4", T: 1}},
	}
	for _, tc := range cases {
		c := startTestCluster(t, tc.n, asyncOptions())
		for origin := 0; origin < tc.n; origin++ {
			resp := submitAndWait(t, c, origin, tc.spec)
			ctx := tc.spec.Tree
			if !resp.Decided() {
				t.Fatalf("%s via daemon %d: state %s (%s)", ctx, origin, resp.State, resp.Err)
			}
			got, err := resp.SimResult()
			if err != nil {
				t.Fatalf("%s via daemon %d: %v", ctx, origin, err)
			}
			judgeAsyncResult(t, tc.spec, tc.n, got, ctx)
		}
		c.Stop()
	}
}

// TestAsyncServeSlowLinks: with every peer-link write held up, a sync
// engine would burn its round budget waiting at barriers; the async engine
// has no barriers — frames deliver whenever they arrive and the sessions
// still decide. The watchdog only bounds total silence, which a slow link
// never produces.
func TestAsyncServeSlowLinks(t *testing.T) {
	opts := asyncOptions()
	opts.WrapConn = slowLinks(2 * time.Millisecond)
	c := startTestCluster(t, 3, opts)
	spec := Spec{Tree: "spider:3:3"}
	resp := submitAndWait(t, c, 0, spec)
	if !resp.Decided() {
		t.Fatalf("slow-link async session: state %s (%s)", resp.State, resp.Err)
	}
	got, err := resp.SimResult()
	if err != nil {
		t.Fatal(err)
	}
	judgeAsyncResult(t, spec, 3, got, "slow links")
}

// TestAsyncServeQuietMatchesInProcess: with t=0 every witness report names
// all n senders, making the async update delivery-order independent — so a
// served session's outputs must be byte-identical to the in-process FIFO
// execution of the same pipeline, even though no oracle is enforced at
// serving time.
func TestAsyncServeQuietMatchesInProcess(t *testing.T) {
	const n = 3
	spec := Spec{Tree: "star:6"}
	sp, err := cli.ParseSpaceSpec(spec.Tree, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := sp.Tree
	inputs, err := sp.ParseInputs(spec.Inputs, n)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]async.Machine, n)
	budget := 0
	for i := range machines {
		p, err := async.NewPipeline(tr, n, 0, async.PartyID(i), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = p
		if b := p.DeliveryBudget(); b > budget {
			budget = b
		}
	}
	want, err := async.Run(async.Config{N: n, MaxDeliveries: budget}, machines)
	if err != nil {
		t.Fatal(err)
	}

	c := startTestCluster(t, n, asyncOptions())
	resp := submitAndWait(t, c, 0, spec)
	if !resp.Decided() {
		t.Fatalf("state %s (%s)", resp.State, resp.Err)
	}
	got, err := resp.SimResult()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		w := want.Outputs[async.PartyID(p)].(tree.VertexID)
		g, ok := got.Outputs[sim.PartyID(p)].(tree.VertexID)
		if !ok || g != w {
			t.Errorf("party %d decided %v when served, %v in-process", p, got.Outputs[sim.PartyID(p)], w)
		}
	}
}

// heldBackLink delays every write on the from→to peer link only, so to's
// SessionOpen (and everything else from) lands long after the other
// daemons' traffic for the same session.
func heldBackLink(from, to sim.PartyID, delay time.Duration) func(_, _ sim.PartyID, conn net.Conn) net.Conn {
	slow := slowLinks(delay)
	return func(f, t sim.PartyID, conn net.Conn) net.Conn {
		if f == from && t == to {
			return slow(f, t, conn)
		}
		return conn
	}
}

// TestAsyncLateOpenDecides pins the GOMAXPROCS=2 wedge deterministically:
// with t=1 the three seats that hold the open run the whole protocol among
// themselves before the held-back fourth seat's open lands, so hundreds of
// frames (282 on this spec) precede it — far past the lock-step "one frame
// per link" bound that used to tombstone the session and seat an engine with
// a hole in its input. Async pre-open buffering is bounded by the shard-wide
// budget only (here a quarter of the real one), and the session decides.
func TestAsyncLateOpenDecides(t *testing.T) {
	opts := asyncOptions()
	opts.RoundTimeout = 3 * time.Second // a wedge fails fast instead of idling 20s
	opts.WrapConn = heldBackLink(0, 3, 200*time.Millisecond)
	c := startTestCluster(t, 4, opts)
	shrinkPreOpen(c, 1024, 1024)
	spec := Spec{Tree: "spider:3:4", T: 1}
	resp := submitAndWait(t, c, 0, spec)
	if !resp.Decided() {
		t.Fatalf("late-open async session: state %s (%s)", resp.State, resp.Err)
	}
	got, err := resp.SimResult()
	if err != nil {
		t.Fatal(err)
	}
	judgeAsyncResult(t, spec, 4, got, "late open")
}

// shrinkPreOpen lowers the pre-open bounds of every shard in the cluster: the
// real ones (a frame per link, 4096 a shard) are exactly what honest lock-step
// traffic cannot exceed.
func shrinkPreOpen(c *Cluster, perSession, perShard int) {
	for _, d := range c.Daemons {
		for _, sh := range d.mgr.shards {
			sh.mu.Lock()
			sh.pendingPer, sh.pendingMax = perSession, perShard
			sh.mu.Unlock()
		}
	}
}

// TestPreOpenOverflowFailsLoudly is the lock-step twin: when the per-session
// pre-open bound (shrunk to 1 frame here) is genuinely exceeded — surely
// on the held-back daemon 3, possibly on a faster one too — the late open
// fails the session at once with the typed reason and abort
// gossip, instead of seating an engine that waits out its round timeout on
// frames that were dropped.
func TestPreOpenOverflowFailsLoudly(t *testing.T) {
	opts := Options{SetupTimeout: 10 * time.Second,
		RoundTimeout: 20 * time.Second, DrainTimeout: 5 * time.Second}
	opts.WrapConn = heldBackLink(0, 3, 200*time.Millisecond)
	c := startTestCluster(t, 4, opts)
	shrinkPreOpen(c, 1, 64)
	start := time.Now()
	resp := submitAndWait(t, c, 0, Spec{Tree: "path:8"})
	if resp.Decided() || !strings.Contains(resp.Err, reasonPreOpenOverflow) {
		t.Fatalf("state %s (%q), want a failure naming %q", resp.State, resp.Err, reasonPreOpenOverflow)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("overflow surfaced after %v — it must not wait for a round timeout", took)
	}
}
