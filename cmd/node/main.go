// Command node runs one TreeAA party as a real networked process: it binds
// its TCP listen address, meshes with its peers, and steps the protocol in
// lock-step rounds with every message wire-encoded onto sockets.
//
// A deployment is one process per honest party plus, when the adversary has
// Byzantine parties, one *adversary host* process seated at the lowest
// Byzantine id — it co-hosts all of them, because the model's adversary is a
// single rushing, coordinated entity that cannot be split. An omission party
// (omit, stop) is a process of its own: it runs its honest machine and drops
// its own sends (sim.Omit). The peers file has one "host:port" per line;
// line i is party i's listen address.
//
//	node -id 0 -peers peers.txt -t 2 -tree path:40 -adversary splitvote
//	node -id 5 -peers peers.txt -t 2 -tree path:40 -adversary splitvote   # host seat (n=7)
//
// The -cluster mode is a self-contained smoke test: it allocates loopback
// ports, spawns the whole deployment as child processes of this binary,
// and checks validity and 1-agreement of the outputs:
//
//	node -cluster 3 -tree path:16
//	node -cluster 7 -t 2 -tree path:40 -adversary splitvote
//	node -cluster 7 -t 2 -tree path:40 -adversary 'splitvote(per=2)+noise'
//	node -cluster 7 -t 2 -tree path:40 -adversary 'splitvote+omit(halves=1)'
//
// -adversary takes the adversary language of cmd/treeaa (DESIGN §9), minus
// crash: it corrupts adaptively, and messages on the wire cannot be
// retracted. A party that crashes is the stop clause, an omission party
// whose seat stops sending partway through its round:
//
//	node -cluster 7 -t 2 -tree path:40 -adversary 'splitvote+stop(rounds=2)'
//
// The link clauses of -adversary (lat, stall, drop, part; see
// internal/chaos) inject seeded link faults at every seat: per-link latency
// and stalls, one-shot connection drops and healing partitions. They claim
// no party and ride the session handshake with the rest of the spec.
//
//	node -cluster 4 -tree path:16 -adversary 'lat(base=1ms,jitter=1ms)+drop(from=0,to=2,round=2)'
//
// -mode async replaces the lock-step rounds with the event-driven
// asynchronous pipeline: no EOR barriers, no round timeouts — every seat
// dispatches on arrival and decides when its RBC/witness thresholds fill.
// Async fleets are honest-only (Byzantine async behaviour is exercised
// in-process by cmd/check; an omission party filters a lock-step round) and
// take every link clause: a dropped connection is repaired by the same
// count-exchange resume as in sync mode.
//
//	node -cluster 4 -tree star:6 -mode async -adversary 'lat(base=200ms,jitter=150ms,from=2)'
//	node -cluster 4 -mode async -adversary 'drop(from=0,to=2,round=2)'
//
// What the mesh cannot host — an adversary beside async seats — is decided,
// and explained, by transport.RunProcess, not here; this command only gates
// omission parties under -mode async.
//
// -tree graph:<spec> swaps the input space for a block graph (see
// internal/graph): the seats run TreeAA on the graph's block-cut tree and
// decode locally, and the cluster checks geodesic-hull validity plus the
// graph's agreement guarantee. Every mode takes either space.
//
//	node -cluster 4 -t 1 -tree graph:cliquechain:3:4 -adversary splitvote
//	node -cluster 4 -t 1 -tree graph:cliquechain:3:4 -mode async
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"treeaa/internal/chaos"
	"treeaa/internal/cli"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

func main() {
	var (
		id        = flag.Int("id", -1, "this process's party id (line number in -peers)")
		peersFile = flag.String("peers", "", "peers file: one host:port per line, line i = party i")
		tFlag     = flag.Int("t", 0, "Byzantine budget (corrupted set is the highest t ids)")
		treeSpec  = flag.String("tree", "path:40", `input space spec (as in cmd/treeaa): a tree, or a "graph:"-prefixed block graph`)
		inputSpec = flag.String("inputs", "", "comma-separated input vertex labels (default: spread)")
		advName   = flag.String("adversary", "none", "adversary spec: none, or name(key=value,...) clauses joined by '+' of "+strings.Join(cli.AdversaryNames(), "|"))
		mode      = flag.String("mode", "sync", "execution mode: sync (lock-step rounds) or async (event-driven, honest fleets only)")
		seed      = flag.Int64("seed", 1, "seed for random trees / noise adversaries / link faults")
		cluster   = flag.Int("cluster", 0, "spawn an n-party loopback cluster of this binary and check agreement")
		setupTO   = flag.Duration("setup-timeout", 10*time.Second, "mesh construction budget")
		roundTO   = flag.Duration("round-timeout", 30*time.Second, "per-round traffic budget (also the reconnect budget)")
	)
	flag.Parse()
	// SIGINT/SIGTERM cancel the context, which unwinds the endpoint's
	// accept/read loops and any blocked barrier wait instead of leaving the
	// deployment to ride out its round timeout (or leak goroutines).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if *mode != "sync" && *mode != "async" {
		err = fmt.Errorf("-mode %q: want sync or async", *mode)
	} else if *cluster > 0 {
		err = runCluster(ctx, *cluster, *tFlag, *treeSpec, *inputSpec, *advName, *mode, *seed, *setupTO, *roundTO)
	} else {
		err = runSeat(ctx, *id, *peersFile, *tFlag, *treeSpec, *inputSpec, *advName, *mode, *seed, *setupTO, *roundTO)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "node:", err)
		os.Exit(1)
	}
}

// runSeat runs one party (or the adversary host seat) of a deployment.
func runSeat(ctx context.Context, id int, peersFile string, t int, treeSpec, inputSpec, advName, mode string, seed int64,
	setupTO, roundTO time.Duration) error {
	if peersFile == "" {
		return fmt.Errorf("-peers is required (or use -cluster)")
	}
	addrs, err := cli.ReadPeers(peersFile)
	if err != nil {
		return err
	}
	n := len(addrs)
	if id < 0 || id >= n {
		return fmt.Errorf("-id %d out of range for %d peers", id, n)
	}
	clauses, err := cli.ParseAdversary(advName)
	if err != nil {
		return err
	}
	for _, cl := range clauses {
		if cl.Name == "crash" {
			return fmt.Errorf("the crash adversary corrupts adaptively; messages on the wire cannot " +
				"be retracted — use cmd/treeaa's in-process transport for it, or stop for a crash fault")
		}
	}
	sp, err := cli.ParseSpaceSpec(treeSpec, seed)
	if err != nil {
		return err
	}
	inputs, err := sp.ParseInputs(inputSpec, n)
	if err != nil {
		return err
	}
	adv, _, err := sp.BuildAdversary(advName, n, t, seed)
	if err != nil {
		return err
	}
	byz, omitters, err := sim.Faults(sim.Config{N: n, MaxCorrupt: t, Adversary: adv})
	if err != nil {
		return err
	}
	plan, err := chaos.NewPlan(advName, n)
	if err != nil {
		return err
	}
	if err := checkFlags(mode, advName, omitters); err != nil {
		return err
	}

	// Everything the seats must agree on joins the session hash — the mode
	// first — so a deployment whose seats disagree on any of it (a sync seat
	// in an async fleet, two adversaries or link faults) fails the handshake
	// instead of wedging half-meshed.
	seat := transport.Seat{
		Ctx: ctx,
		ID:  sim.PartyID(id), N: n, Addrs: addrs,
		Corrupted: byz, MaxRounds: sp.Rounds() + 2,
		Session: sessionID(mode, sp.Spec, inputSpec, advName, n, t, seed,
			setupTO, roundTO, addrs),
	}
	role := "party"
	switch {
	case mode == "async":
		// No rounds, no barriers: the seat dispatches whatever arrives,
		// announces its decision, and exits once every peer has too.
		seat.Event, _, err = sp.NewAsyncMachine(n, t, seat.ID, inputs[id])
	case slices.Contains(byz, seat.ID):
		role, seat.Adversary = "adversary", adv
	default:
		seat.Machine, _, err = sp.NewMachine(n, t, seat.ID, inputs[id])
		if slices.Contains(omitters, seat.ID) {
			// An omission seat's machine drops its own sends.
			role, seat.Machine = "omission", sim.Omit(adv.(sim.OutboxFilter), seat.ID, n, seat.Machine)
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("node %d: %s (%s) over the mesh, n=%d t=%d space=%s adversary=%s, listening on %s\n",
		id, role, mode, n, t, sp.Spec, advName, addrs[id])
	// The library refuses what the mesh cannot host (an event machine
	// beside an adversary); nothing here second-guesses it.
	wires, chaosStats := &metrics.WireStats{}, &metrics.ChaosStats{}
	res, err := transport.RunProcess(seat, chaos.NewInjector(plan, seed, chaosStats).Apply(transport.Options{
		Stats: wires, SetupTimeout: setupTO, RoundTimeout: roundTO}))
	if err != nil {
		return err
	}

	fmt.Printf("node %d: execution %d rounds / %d deliveries, sent %d protocol msgs / %d bytes\n",
		id, res.Rounds, res.Deliveries, res.Messages, res.Bytes)
	fmt.Printf("node %d: wire: %s\n", id, wires)
	if !plan.Empty() {
		fmt.Printf("node %d: chaos: %s\n", id, chaosStats)
	}
	output := "-"
	if v, ok := res.Output.(tree.VertexID); ok {
		output = sp.Label(v)
	}
	fmt.Printf(resultLine+"\n", id, role, output, res.Rounds, res.Deliveries)
	return nil
}

// resultLine is what every seat prints last and runCluster parses; the
// adversary host has no output ("-").
const resultLine = "RESULT id=%d role=%s output=%s rounds=%d deliveries=%d"

// sessionID derives the deployment's session id from every flag the seats
// must share.
func sessionID(mode, spaceSpec, inputSpec, advName string, n, t int, seed int64,
	setupTO, roundTO time.Duration, addrs []string) uint64 {
	return transport.DeriveSession(append([]string{mode, spaceSpec, inputSpec, advName,
		fmt.Sprint(n), fmt.Sprint(t), fmt.Sprint(seed),
		setupTO.String(), roundTO.String()}, addrs...)...)
}

// checkFlags gates what the chosen mode can run: an async seat hosts no
// omission party, whose filter acts on a lock-step round.
func checkFlags(mode, advName string, omitters []sim.PartyID) error {
	if mode == "async" && len(omitters) > 0 {
		return fmt.Errorf("adversary %q has omission parties, which filter a lock-step machine's sends "+
			"per round; async seats run honest fleets only — drop -mode async", advName)
	}
	return nil
}

// runCluster spawns a whole deployment of this binary on loopback ports and
// checks the protocol's guarantees across the collected outputs.
func runCluster(ctx context.Context, n, t int, treeSpec, inputSpec, advName, mode string, seed int64,
	setupTO, roundTO time.Duration) error {
	if t < 0 || (t > 0 && n <= 3*t) {
		return fmt.Errorf("need n > 3t, got n=%d t=%d", n, t)
	}
	sp, err := cli.ParseSpaceSpec(treeSpec, seed)
	if err != nil {
		return err
	}
	inputs, err := sp.ParseInputs(inputSpec, n)
	if err != nil {
		return err
	}
	adv, corruptSet, err := sp.BuildAdversary(advName, n, t, seed)
	if err != nil {
		return err
	}
	byz, omitters, err := sim.Faults(sim.Config{N: n, MaxCorrupt: t, Adversary: adv})
	if err != nil {
		return err
	}
	// Fail fast on a bad link clause or flag combination before spawning n
	// children (each child re-validates against its own flags anyway).
	if _, err := chaos.NewPlan(advName, n); err != nil {
		return err
	}
	if err := checkFlags(mode, advName, omitters); err != nil {
		return err
	}

	// Reserve one loopback port per party, then release them for the
	// children to bind. The window between close and child bind is a
	// port-theft race in principle; the session handshake turns any
	// collision into a clean failure rather than a confused mesh.
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	dir, err := os.MkdirTemp("", "treeaa-node")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	peersFile := filepath.Join(dir, "peers.txt")
	if err := os.WriteFile(peersFile, []byte(strings.Join(addrs, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, ln := range lns {
		ln.Close()
	}

	// One child per party outside the Byzantine set (omission parties
	// included), plus the adversary host seat at the lowest Byzantine id.
	var seats []int
	for i := 0; i < n; i++ {
		if p := sim.PartyID(i); !slices.Contains(byz, p) || p == byz[0] {
			seats = append(seats, i)
		}
	}
	outputs := make(map[int]string)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	for _, seat := range seats {
		wg.Add(1)
		go func(seat int) {
			defer wg.Done()
			cmd := exec.CommandContext(ctx, self, "-id", fmt.Sprint(seat), "-peers", peersFile,
				"-t", fmt.Sprint(t), "-tree", treeSpec, "-inputs", inputSpec,
				"-adversary", advName, "-mode", mode, "-seed", fmt.Sprint(seed),
				"-setup-timeout", setupTO.String(), "-round-timeout", roundTO.String())
			// On Ctrl-C, forward SIGTERM so each seat unwinds through its own
			// signal handler (drain, shutdown) instead of being SIGKILLed.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 5 * time.Second
			out, err := cmd.CombinedOutput()
			mu.Lock()
			defer mu.Unlock()
			for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
				fmt.Printf("  [%d] %s\n", seat, line)
				var id, rounds, deliveries int
				var role, label string
				if _, e := fmt.Sscanf(line, resultLine, &id, &role, &label, &rounds, &deliveries); e == nil && role == "party" {
					outputs[id] = label
				}
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("seat %d: %w", seat, err))
			}
		}(seat)
	}
	wg.Wait()
	if len(errs) > 0 {
		return fmt.Errorf("cluster children failed: %v", errs)
	}

	// Validity: outputs lie in the input-space hull of honest inputs.
	// Agreement: distance <= 1 on trees and block graphs, a shared block on
	// graphs with cycle blocks.
	vertices := make(map[sim.PartyID]tree.VertexID, len(outputs))
	ok := true
	for i := 0; i < n; i++ {
		if corruptSet[sim.PartyID(i)] {
			continue
		}
		label, have := outputs[i]
		if !have {
			fmt.Printf("cluster: party %d reported no output\n", i)
			ok = false
			continue
		}
		v, err := sp.VertexByLabel(label)
		if err != nil {
			return fmt.Errorf("party %d reported unknown vertex %q", i, label)
		}
		vertices[sim.PartyID(i)] = v
	}
	maxDist, validity, agreement := sp.Judge(inputs, corruptSet, vertices)
	for _, v := range append(validity, agreement...) {
		fmt.Println("cluster:", v)
	}
	guarantee := "1-agreement"
	if sp.IsGraph() && !sp.Graph.IsBlockGraph() {
		guarantee = "per-block agreement"
	}
	fmt.Printf("cluster: n=%d t=%d adversary=%s, max pairwise output distance %d (%s: %v)\n",
		n, t, advName, maxDist, guarantee, len(agreement) == 0)
	if !ok || len(validity)+len(agreement) > 0 {
		return fmt.Errorf("AA properties violated")
	}
	return nil
}
