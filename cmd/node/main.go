// Command node runs one TreeAA party as a real networked process: it binds
// its TCP listen address, meshes with its peers, and steps the protocol in
// lock-step rounds with every message wire-encoded onto sockets.
//
// A deployment is one process per honest party plus, when an adversary is
// configured, one *adversary host* process seated at the lowest corrupted
// id — it co-hosts all t corrupted parties, because the model's adversary
// is a single rushing, coordinated entity that cannot be split. The peers
// file has one "host:port" per line; line i is party i's listen address.
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
//
// A -chaos plan (see internal/chaos) injects seeded faults at every seat:
// per-link latency and stalls, one-shot connection drops, healing
// partitions, and honest crash-restarts. All seats must be launched with
// the same plan — it is part of the session handshake.
//
//	node -cluster 4 -tree path:16 -chaos 'lat:1ms±1ms,crash:p1@r2'
//
// -mode async replaces the lock-step rounds with the event-driven
// asynchronous pipeline: no EOR barriers, no round timeouts — every seat
// dispatches on arrival and decides when its RBC/witness thresholds fill.
// Async fleets are honest-only (Byzantine async behaviour is exercised
// in-process by cmd/check) and take every chaos clause but crash: a dropped
// connection is repaired by the same seq/ack resume as in sync mode, but a
// restarted seat would have no round history to replay.
//
//	node -cluster 4 -tree star:6 -mode async -chaos 'lat:200ms±150ms@p2'
//	node -cluster 4 -mode async -chaos 'drop:p0-p2@r2'
//
// -overlay tree[:b] routes the same seats over a three-level communication
// tree instead of the full mesh. Which combinations a fabric cannot host —
// an adversary or async seats over the overlay, an adversary beside async
// seats on the mesh — is decided, and explained, by the library function
// that lacks the capability (transport.RunProcess, overlay.RunProcess), not
// here; this command only gates chaos clauses.
//
// -space graph:<spec> swaps the input space for a block graph (see
// internal/graph): the seats run TreeAA on the graph's block-cut tree and
// decode locally, and the cluster checks geodesic-hull validity plus the
// graph's agreement guarantee. Every mode and fabric takes either space.
//
//	node -cluster 4 -t 1 -space graph:cliquechain:3:4 -adversary splitvote
//	node -cluster 4 -t 1 -space graph:cliquechain:3:4 -overlay tree:2
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"treeaa/internal/adversary"
	"treeaa/internal/chaos"
	"treeaa/internal/cli"
	"treeaa/internal/metrics"
	"treeaa/internal/overlay"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
)

func main() {
	var (
		id          = flag.Int("id", -1, "this process's party id (line number in -peers)")
		peersFile   = flag.String("peers", "", "peers file: one host:port per line, line i = party i")
		tFlag       = flag.Int("t", 0, "Byzantine budget (corrupted set is the highest t ids)")
		treeSpec    = flag.String("tree", "path:40", `input space spec (as in cmd/treeaa): a tree, or a "graph:"-prefixed block graph`)
		inputSpec   = flag.String("inputs", "", "comma-separated input vertex labels (default: spread)")
		advName     = flag.String("adversary", "none", strings.Join(cli.AdversaryNames(), "|"))
		mode        = flag.String("mode", "sync", "execution mode: sync (lock-step rounds) or async (event-driven, honest fleets only)")
		seed        = flag.Int64("seed", 1, "seed for random trees / noise adversaries / chaos")
		cluster     = flag.Int("cluster", 0, "spawn an n-party loopback cluster of this binary and check agreement")
		chaosSpec   = flag.String("chaos", "", "chaos plan (see internal/chaos); must match across all seats")
		overlaySpec = flag.String("overlay", "", "route traffic over a communication tree instead of the full mesh (tree or tree:<branching>); crash-fault only")
		setupTO     = flag.Duration("setup-timeout", 10*time.Second, "mesh construction budget")
		roundTO     = flag.Duration("round-timeout", 30*time.Second, "per-round traffic budget (also the reconnect budget)")
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
		err = runCluster(ctx, *cluster, *tFlag, *treeSpec, *inputSpec, *advName, *mode, *seed, *chaosSpec, *overlaySpec, *setupTO, *roundTO)
	} else {
		err = runSeat(ctx, *id, *peersFile, *tFlag, *treeSpec, *inputSpec, *advName, *mode, *seed, *chaosSpec, *overlaySpec, *setupTO, *roundTO)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "node:", err)
		os.Exit(1)
	}
}

// runSeat runs one party (or the adversary host seat) of a deployment.
func runSeat(ctx context.Context, id int, peersFile string, t int, treeSpec, inputSpec, advName, mode string, seed int64,
	chaosSpec, overlaySpec string, setupTO, roundTO time.Duration) error {
	if peersFile == "" {
		return fmt.Errorf("-peers is required (or use -cluster)")
	}
	addrs, err := readPeers(peersFile)
	if err != nil {
		return err
	}
	n := len(addrs)
	if id < 0 || id >= n {
		return fmt.Errorf("-id %d out of range for %d peers", id, n)
	}
	if advName == "crash" {
		return fmt.Errorf("the crash adversary corrupts adaptively; messages on the wire cannot " +
			"be retracted — use cmd/treeaa's in-process transport for it")
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
	var corrupted []sim.PartyID
	if adv != nil {
		corrupted = adversary.FirstParties(n, t)
	}
	plan, err := chaos.Parse(chaosSpec)
	if err != nil {
		return err
	}
	if err := plan.Validate(n); err != nil {
		return err
	}
	for p := range plan.Crashes {
		if corruptSet[p] {
			return fmt.Errorf("chaos plan crashes party %d, which the adversary corrupts", p)
		}
	}
	if err := checkChaosFlags(mode, overlaySpec, plan); err != nil {
		return err
	}

	// Everything the seats must agree on joins the session hash — mode and
	// fabric first — so a deployment whose seats disagree on any of it (a
	// sync seat in an async fleet, mesh beside tree, two branching factors,
	// two fault plans) fails the handshake instead of wedging half-meshed.
	seat := transport.Seat{
		Ctx: ctx,
		ID:  sim.PartyID(id), N: n, Addrs: addrs,
		Corrupted: corrupted, MaxRounds: sp.Rounds() + 2,
		Session: sessionID(mode, overlaySpec, sp.Spec, inputSpec, advName, n, t, seed,
			chaosSpec, setupTO, roundTO, addrs),
	}
	newMachine := func(p sim.PartyID) (sim.Machine, error) {
		m, _, err := sp.NewMachine(n, t, p, inputs[p])
		return m, err
	}
	role := "party"
	switch {
	case mode == "async":
		// No rounds, no barriers: the seat dispatches whatever arrives,
		// announces its decision, and exits once every peer has too.
		seat.Event, _, err = sp.NewAsyncMachine(n, t, seat.ID, inputs[id])
	case corruptSet[seat.ID]:
		role, seat.Adversary = "adversary", adv
	default:
		seat.Machine, err = newMachine(seat.ID)
	}
	if err != nil {
		return err
	}

	fabric := "mesh"
	if overlaySpec != "" {
		fabric = overlaySpec + " overlay"
	}
	fmt.Printf("node %d: %s (%s) over the %s, n=%d t=%d space=%s adversary=%s, listening on %s\n",
		id, role, mode, fabric, n, t, sp.Spec, advName, addrs[id])
	// The library refuses what a fabric cannot host (an adversary or an
	// event machine over the overlay, an event machine beside an adversary
	// on the mesh); nothing here second-guesses it.
	wires := &metrics.WireStats{}
	var (
		res         *transport.ProcessResult
		fabricStats fmt.Stringer
	)
	if overlaySpec != "" {
		branching, perr := overlay.ParseSpec(overlaySpec)
		if perr != nil {
			return perr
		}
		ostats := &metrics.OverlayStats{}
		fabricStats = ostats
		// Interior seats (root, sub-leaders) listen and relay; leaves only
		// dial their parent. Crashes are injected by the overlay's own seat
		// supervisor.
		res, err = overlay.RunProcess(seat, overlay.Options{
			Branching: branching, SetupTimeout: setupTO, RoundTimeout: roundTO,
			Stats: ostats, Wire: wires, CrashPlan: plan.Crashes, Restart: newMachine,
		})
	} else {
		chaosStats := &metrics.ChaosStats{}
		fabricStats = chaosStats
		opts := chaos.NewInjector(plan, seed, chaosStats).Apply(transport.Options{
			Stats: wires, SetupTimeout: setupTO, RoundTimeout: roundTO})
		if seat.Machine != nil {
			opts.Restart = newMachine
		}
		res, err = transport.RunProcess(seat, opts)
	}
	if err != nil {
		return err
	}

	fmt.Printf("node %d: execution %d rounds / %d deliveries, sent %d protocol msgs / %d bytes\n",
		id, res.Rounds, res.Deliveries, res.Messages, res.Bytes)
	fmt.Printf("node %d: wire: %s\n", id, wires)
	if overlaySpec != "" {
		fmt.Printf("node %d: overlay: %s\n", id, fabricStats)
	} else if !plan.Empty() {
		fmt.Printf("node %d: chaos: %s\n", id, fabricStats)
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
func sessionID(mode, overlaySpec, spaceSpec, inputSpec, advName string, n, t int, seed int64,
	chaosSpec string, setupTO, roundTO time.Duration, addrs []string) uint64 {
	return transport.DeriveSession(append([]string{mode, overlaySpec, spaceSpec, inputSpec, advName,
		fmt.Sprint(n), fmt.Sprint(t), fmt.Sprint(seed),
		chaosSpec, setupTO.String(), roundTO.String()}, addrs...)...)
}

// checkChaosFlags gates the chaos plan by what the chosen mode and fabric
// can inject. Event-driven seats take everything but crash (a restarted
// seat has no round history to replay). The overlay's connections are
// internal relay hops, not the party-to-party links link-level clauses
// name, so over it only crash applies, through its own seat supervisor.
func checkChaosFlags(mode, overlaySpec string, plan *chaos.Plan) error {
	if mode == "async" {
		return chaos.RestrictAsync(plan)
	}
	if overlaySpec != "" {
		return plan.Restrict("-overlay",
			"the overlay's connections are internal relay hops, not the party-to-party links "+
				"link-level clauses name — only crash:pP@rR applies", chaos.ClauseCrash)
	}
	return nil
}

// runCluster spawns a whole deployment of this binary on loopback ports and
// checks the protocol's guarantees across the collected outputs.
func runCluster(ctx context.Context, n, t int, treeSpec, inputSpec, advName, mode string, seed int64,
	chaosSpec, overlaySpec string, setupTO, roundTO time.Duration) error {
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
	_, corruptSet, err := sp.BuildAdversary(advName, n, t, seed)
	if err != nil {
		return err
	}
	// Fail fast on a bad chaos plan or flag combination before spawning n
	// children (each child re-validates against its own flags anyway).
	if plan, err := chaos.Parse(chaosSpec); err != nil {
		return err
	} else if err := plan.Validate(n); err != nil {
		return err
	} else if err := checkChaosFlags(mode, overlaySpec, plan); err != nil {
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

	// One child per honest party, plus the adversary host seat.
	var seats []int
	for i := 0; i < n; i++ {
		if !corruptSet[sim.PartyID(i)] {
			seats = append(seats, i)
		}
	}
	if len(corruptSet) > 0 {
		seats = append(seats, n-t) // observer = lowest corrupted id
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
				"-chaos", chaosSpec, "-overlay", overlaySpec,
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

// readPeers parses a peers file: one host:port per line, ignoring blank
// lines and #-comments; line i is party i's listen address.
func readPeers(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var addrs []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, _, err := net.SplitHostPort(line); err != nil {
			return nil, fmt.Errorf("%s: bad peer address %q: %w", path, line, err)
		}
		addrs = append(addrs, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("%s: need at least 2 peers, got %d", path, len(addrs))
	}
	return addrs, nil
}
