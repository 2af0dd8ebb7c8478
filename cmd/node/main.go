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
// its adaptive clause, crash (cli.IsAdaptive): it corrupts mid-run, and
// messages on the wire cannot be retracted. A party that crashes is the
// stop clause, an omission party whose seat stops sending partway through
// its round:
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
// Every seat's role — party, omission, adversary host, or a corrupted party
// the host co-hosts — and everything the mesh cannot host (a faulty party
// beside async seats, an acting adversary with no corrupted party) are
// decided, and explained, by transport's Seat.Role alone. This command
// refuses only the adaptive clause, and -cluster asks Role about every seat
// before it spawns any.
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
		treeSpec  = flag.String("tree", "path:40", "input space spec, one of "+strings.Join(cli.SpaceShapes(), " "))
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
	d := &deployment{t: *tFlag, treeSpec: *treeSpec, inputSpec: *inputSpec, advName: *advName, mode: *mode,
		seed: *seed, setupTO: *setupTO, roundTO: *roundTO}
	var err error
	if *mode != "sync" && *mode != "async" {
		err = fmt.Errorf("-mode %q: want sync or async", *mode)
	} else if *cluster > 0 {
		err = runCluster(ctx, *cluster, d)
	} else {
		err = runSeat(ctx, *id, *peersFile, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "node:", err)
		os.Exit(1)
	}
}

// deployment is what every seat of a deployment is launched with — the
// flags runCluster passes each child — and what parse makes of them.
type deployment struct {
	t                                  int
	treeSpec, inputSpec, advName, mode string
	seed                               int64
	setupTO, roundTO                   time.Duration

	sp     *cli.Space
	inputs []tree.VertexID
	plan   *chaos.Plan
}

// parse reads the flags of an n-party deployment. It refuses an adaptive
// clause (crash; cli.IsAdaptive), which is input validation here: no mesh
// seat can run an adaptive corruption, since messages on the wire cannot be
// retracted.
func (d *deployment) parse(n int) error {
	clauses, err := cli.ParseAdversary(d.advName)
	if err != nil {
		return err
	}
	for _, cl := range clauses {
		if cli.IsAdaptive(cl.Name) {
			return fmt.Errorf("the %s adversary corrupts adaptively; messages on the wire cannot "+
				"be retracted — use cmd/treeaa's in-process transport for it, or stop for a crash fault", cl.Name)
		}
	}
	if d.sp, err = cli.ParseSpaceSpec(d.treeSpec, d.seed); err != nil {
		return err
	}
	if d.inputs, err = d.sp.ParseInputs(d.inputSpec, n); err != nil {
		return err
	}
	d.plan, err = chaos.NewPlan(d.advName, n)
	return err
}

// seat builds party id's seat, the one seat builder of runSeat and
// runCluster: the execution every seat shares, with an adversary of its own
// as each process builds one, and the party's honest machine. Everything the
// seats must agree on joins the session hash — the mode first — so a
// deployment whose seats disagree on any of it (a sync seat in an async
// fleet, two adversaries or link faults) fails the handshake instead of
// wedging half-meshed.
func (d *deployment) seat(ctx context.Context, id int, addrs []string) (transport.Seat, error) {
	n := len(addrs)
	adv, _, err := d.sp.BuildAdversary(d.advName, n, d.t, d.seed)
	if err != nil {
		return transport.Seat{}, err
	}
	seat := transport.Seat{
		Ctx: ctx, ID: sim.PartyID(id), Addrs: addrs,
		Session: sessionID(d.mode, d.sp.Spec, d.inputSpec, d.advName, n, d.t, d.seed, d.setupTO, d.roundTO, addrs),
		Config:  sim.Config{N: n, MaxCorrupt: d.t, MaxRounds: d.sp.Rounds() + 2, Adversary: adv},
	}
	if d.mode == "async" {
		// No rounds, no barriers: the seat dispatches whatever arrives,
		// announces its decision, and exits once every peer has too.
		seat.Event, _, err = d.sp.NewAsyncMachine(n, d.t, seat.ID, d.inputs[id])
	} else {
		seat.Machine, _, err = d.sp.NewMachine(n, d.t, seat.ID, d.inputs[id])
	}
	return seat, err
}

// runSeat runs one seat of a deployment: a party, or the adversary host.
func runSeat(ctx context.Context, id int, peersFile string, d *deployment) error {
	if peersFile == "" {
		return fmt.Errorf("-peers is required (or use -cluster)")
	}
	addrs, err := cli.ReadPeers(peersFile)
	if err != nil {
		return err
	}
	if id < 0 || id >= len(addrs) {
		return fmt.Errorf("-id %d out of range for %d peers", id, len(addrs))
	}
	if err := d.parse(len(addrs)); err != nil {
		return err
	}
	seat, err := d.seat(ctx, id, addrs)
	if err != nil {
		return err
	}
	role, err := seat.Role()
	if err != nil {
		return err
	}

	fmt.Printf("node %d: %s (%s) over the mesh, n=%d t=%d space=%s adversary=%s, listening on %s\n",
		id, role, d.mode, len(addrs), d.t, d.sp.Spec, d.advName, addrs[id])
	wires, chaosStats := &metrics.WireStats{}, &metrics.ChaosStats{}
	res, err := transport.RunProcess(seat, chaos.NewInjector(d.plan, d.seed, chaosStats).Apply(transport.Options{
		Stats: wires, SetupTimeout: d.setupTO, RoundTimeout: d.roundTO}))
	if err != nil {
		return err
	}

	sent := res.Total()
	fmt.Printf("node %d: execution %d rounds / %d deliveries, sent %d protocol msgs / %d bytes\n",
		id, res.TermRound, res.Deliveries, sent.Msgs, sent.Bytes)
	fmt.Printf("node %d: wire: %s\n", id, wires)
	if !d.plan.Empty() {
		fmt.Printf("node %d: chaos: %s\n", id, chaosStats)
	}
	output := "-"
	if v, ok := res.Output.(tree.VertexID); ok {
		output = d.sp.Label(v)
	}
	fmt.Printf(resultLine+"\n", id, role, output, res.TermRound, res.Deliveries)
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

// runCluster spawns a whole deployment of this binary on loopback ports and
// checks the protocol's guarantees across the collected outputs.
func runCluster(ctx context.Context, n int, d *deployment) error {
	if d.t < 0 || (d.t > 0 && n <= 3*d.t) {
		return fmt.Errorf("need n > 3t, got n=%d t=%d", n, d.t)
	}
	if err := d.parse(n); err != nil {
		return fmt.Errorf("nothing spawned: %w", err)
	}
	// Every seat's role, and every refusal, before a port is reserved or a
	// child spawned; a role depends on the execution, not on addresses.
	roles := make([]string, n)
	for i := range roles {
		seat, err := d.seat(nil, i, make([]string, n))
		if err == nil {
			roles[i], err = seat.Role()
		}
		if err != nil {
			return fmt.Errorf("nothing spawned: party %d: %w", i, err)
		}
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

	// One child per seat that runs: all but the co-hosted parties.
	var seats []int
	for i, role := range roles {
		if role != "co-hosted" {
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
				"-t", fmt.Sprint(d.t), "-tree", d.treeSpec, "-inputs", d.inputSpec,
				"-adversary", d.advName, "-mode", d.mode, "-seed", fmt.Sprint(d.seed),
				"-setup-timeout", d.setupTO.String(), "-round-timeout", d.roundTO.String())
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
	// Every seat but an honest party's is faulty, and judged by nobody.
	vertices := make(map[sim.PartyID]tree.VertexID, len(outputs))
	faulty := make(map[sim.PartyID]bool)
	ok := true
	for i, role := range roles {
		if role != "party" {
			faulty[sim.PartyID(i)] = true
			continue
		}
		label, have := outputs[i]
		if !have {
			fmt.Printf("cluster: party %d reported no output\n", i)
			ok = false
			continue
		}
		v, err := d.sp.VertexByLabel(label)
		if err != nil {
			return fmt.Errorf("party %d reported unknown vertex %q", i, label)
		}
		vertices[sim.PartyID(i)] = v
	}
	maxDist, validity, agreement := d.sp.Judge(d.inputs, faulty, vertices)
	for _, v := range append(validity, agreement...) {
		fmt.Println("cluster:", v)
	}
	guarantee := "1-agreement"
	if d.sp.IsGraph() && !d.sp.Graph.IsBlockGraph() {
		guarantee = "per-block agreement"
	}
	fmt.Printf("cluster: n=%d t=%d adversary=%s, max pairwise output distance %d (%s: %v)\n",
		n, d.t, d.advName, maxDist, guarantee, len(agreement) == 0)
	if !ok || len(validity)+len(agreement) > 0 {
		return fmt.Errorf("AA properties violated")
	}
	return nil
}
