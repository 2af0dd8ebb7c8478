// Command serve runs one daemon of an agreement-as-a-service deployment: it
// joins the daemon mesh (one duplex TCP link per daemon pair, shared by
// every session), accepts client sessions over a framed binary wire API,
// and steps this seat's engine for each admitted session on the goroutine
// that delivered its input. Many sessions run concurrently, multiplexed and
// batched over the same links; each decided session's Result is
// byte-identical to the sequential sim.Run on the same spec.
//
// A deployment is one process per seat; the peers file has one "host:port"
// per line, line i = daemon i's peer listen address:
//
//	serve -id 0 -peers peers.txt -client 127.0.0.1:7000
//
// Clients then submit to any daemon via internal/session.DialClient.
//
// The -cluster mode is a self-contained smoke test: it starts the whole
// deployment in-process on loopback, drives -sessions concurrent sessions
// with rotated inputs through the client API, and exits nonzero if any
// session fails to decide or any Result diverges from its sim.Run oracle:
//
//	serve -cluster 3 -sessions 100 -tree spider:3:3
//
// -mode async switches every engine to the event-driven asynchronous
// pipeline: messages deliver on arrival, with no end-of-round barriers and
// no round timeouts (-round-timeout becomes an idle watchdog bounding total
// silence). The mode joins the cluster identity hash, so every daemon of a
// deployment must agree on it. Asynchronous decisions depend on delivery
// order, so the async smokes judge validity and 1-agreement instead of
// oracle byte-identity:
//
//	serve -cluster 3 -mode async -sessions 100 -tree spider:3:3
//
// Durability: -journal-dir enables the write-ahead session journal. Each
// daemon journals admissions and outcome seals to <dir>/daemon-<id>, and on
// restart rebuilds its session table from the log — sealed sessions restore
// their decided Results byte-identically, sessions admitted but never
// sealed restore as failed (resubmit them). Observability: -metrics ADDR
// serves /metrics (Prometheus text) and /healthz; -session-log writes one
// JSON line per session lifecycle event.
//
// The -rolling mode is the durability smoke: a journaled loopback cluster
// under continuous load while every daemon is gracefully restarted in
// turn; any decided session that fails its check (oracle byte-identity, or
// validity and agreement with -mode async) exits nonzero:
//
//	serve -cluster 4 -rolling -sessions 64 -tree spider:3:3
//
// SIGINT/SIGTERM shut down gracefully: admissions stop, in-flight sessions
// drain (up to -drain-timeout), then the mesh and client listeners close.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/journal"
	"treeaa/internal/metrics"
	"treeaa/internal/obs"
	"treeaa/internal/session"
)

func main() {
	var (
		id         = flag.Int("id", -1, "this daemon's seat id (line number in -peers)")
		peersFile  = flag.String("peers", "", "peers file: one host:port per line, line i = daemon i")
		clientAddr = flag.String("client", "127.0.0.1:0", "client API listen address")
		cluster    = flag.Int("cluster", 0, "run an n-daemon loopback deployment in-process (smoke mode)")
		sessions   = flag.Int("sessions", 100, "cluster mode: concurrent sessions to drive")
		treeSpec   = flag.String("tree", "spider:3:3", "cluster mode: space spec of the driven sessions, one of "+
			strings.Join(slices.DeleteFunc(cli.SpaceShapes(), cli.ReadsFile), " ")+" (a served session reads no file)")
		tFlag      = flag.Int("t", 0, "cluster mode: corruption budget of the driven sessions")
		seed       = flag.Int64("seed", 1, "cluster mode: tree-spec seed")
		maxSess    = flag.Int("max-sessions", 1024, "admission control: max in-flight sessions per daemon")
		defaultTTL = flag.Duration("ttl", 30*time.Second, "default session deadline")
		setupTO    = flag.Duration("setup-timeout", 10*time.Second, "mesh construction budget")
		roundTO    = flag.Duration("round-timeout", 60*time.Second, "per-round barrier budget")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain budget")
		journalDir = flag.String("journal-dir", "", "enable the write-ahead session journal under this directory (per-daemon subdirs)")
		metricsAt  = flag.String("metrics", "", "serve /metrics and /healthz on this address (e.g. 127.0.0.1:9090)")
		sessionLog = flag.String("session-log", "", "write per-session JSON lifecycle logs to this file ('-' = stderr)")
		linger     = flag.Duration("linger", 0, "cluster mode: keep the cluster and metrics endpoint up this long after the smoke")
		rolling    = flag.Bool("rolling", false, "cluster mode: rolling-restart smoke — restart each daemon in turn under load")
		mode       = flag.String("mode", "sync", "execution mode: sync (lock-step rounds, oracle-identical Results) or async (event-driven, no round barriers)")
	)
	var prof cli.Profile
	prof.RegisterFlags()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *mode != "sync" && *mode != "async" {
		fmt.Fprintf(os.Stderr, "serve: unknown -mode %q (want sync or async)\n", *mode)
		os.Exit(1)
	}

	opts := session.Options{
		MaxSessions: *maxSess,
		DefaultTTL:  *defaultTTL, SetupTimeout: *setupTO,
		RoundTimeout: *roundTO, DrainTimeout: *drainTO,
		JournalDir: *journalDir,
		Stats:      &metrics.ServeStats{}, JournalStats: &journal.Stats{},
		Async: *mode == "async",
	}
	var logClose func() error
	opts.SessionLog, logClose, err = sessionLogger(*sessionLog)
	if err == nil {
		switch {
		case *rolling:
			err = runRolling(ctx, *cluster, *sessions, *treeSpec, *tFlag, *seed, *metricsAt, opts)
		case *cluster > 0:
			err = runSmoke(ctx, *cluster, *sessions, *treeSpec, *tFlag, *seed, *metricsAt, *linger, opts)
		default:
			err = runSeat(ctx, *id, *peersFile, *clientAddr, *metricsAt, opts)
		}
	}
	if logClose != nil {
		logClose()
	}
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// sessionLogger builds the per-session structured logger for -session-log.
func sessionLogger(path string) (*slog.Logger, func() error, error) {
	switch path {
	case "":
		return nil, nil, nil
	case "-":
		return obs.NewSessionLogger(os.Stderr), nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("-session-log: %w", err)
	}
	return obs.NewSessionLogger(f), f.Close, nil
}

// serveObs binds the observability endpoint, if requested. ready is the
// /healthz probe; the returned closer is a no-op when -metrics is unset.
func serveObs(addr string, id int, opts session.Options, ready func() error) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	jstats := opts.JournalStats
	if opts.JournalDir == "" {
		jstats = nil // no journal, no treeaa_journal_* families
	}
	srv, err := obs.Serve(addr, obs.Options{
		DaemonID: id,
		Serve:    opts.Stats,
		Journal:  jstats,
		Ready:    ready,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("serve: metrics on http://%s/metrics, health on /healthz\n", srv.Addr())
	return func() { srv.Close() }, nil
}

// runSeat runs one daemon until the context cancels.
func runSeat(ctx context.Context, id int, peersFile, clientAddr, metricsAt string, opts session.Options) error {
	if peersFile == "" {
		return fmt.Errorf("-peers is required (or use -cluster)")
	}
	addrs, err := cli.ReadPeers(peersFile)
	if err != nil {
		return err
	}
	d, err := session.NewDaemon(id, addrs, clientAddr, opts)
	if err != nil {
		return err
	}
	closeObs, err := serveObs(metricsAt, id, opts, d.Health)
	if err != nil {
		return err
	}
	defer closeObs()
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(ctx) }()
	select {
	case err := <-errCh:
		return err // setup failed before ready
	case <-d.Ready():
	}
	fmt.Printf("serve %d: mesh up (%d daemons), client API on %s\n", id, len(addrs), d.ClientAddr())
	err = <-errCh
	fmt.Printf("serve %d: %s\n", id, d.Stats())
	return err
}

// clusterHealth builds a /healthz probe covering every daemon of an
// in-process cluster.
func clusterHealth(c *session.Cluster, n int) func() error {
	return func() error {
		for i := 0; i < n; i++ {
			if err := c.Daemon(i).Health(); err != nil {
				return fmt.Errorf("daemon %d: %w", i, err)
			}
		}
		return nil
	}
}

// sessionTTL is the deadline of every session the cluster smokes drive.
const sessionTTL = 2 * time.Minute

// runSmoke starts n daemons in-process, drives sessions concurrent sessions
// through their client APIs, and verifies every Result. Any failed check or
// failed session exits nonzero.
func runSmoke(ctx context.Context, n, sessions int, treeSpec string, t int, seed int64,
	metricsAt string, linger time.Duration, opts session.Options) error {
	if sessions < 1 {
		return fmt.Errorf("-sessions must be ≥ 1")
	}
	w, err := session.NewWorkload(treeSpec, seed, n, t, sessionTTL, sessions, opts.Async)
	if err != nil {
		return err
	}

	if opts.MaxSessions < sessions+n {
		opts.MaxSessions = sessions + n
	}
	c, err := session.StartCluster(n, opts)
	if err != nil {
		return err
	}
	defer c.Stop()
	closeObs, err := serveObs(metricsAt, 0, opts, clusterHealth(c, n))
	if err != nil {
		return err
	}
	defer closeObs()
	clusterMode, check := "sync", "oracle-identical"
	if opts.Async {
		clusterMode, check = "async", "valid and 1-agreeing"
	}
	fmt.Printf("serve: %d-daemon %s loopback cluster up, driving %d concurrent sessions of %s\n",
		n, clusterMode, sessions, treeSpec)

	start := time.Now()
	var failures []string
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		_, failures = w.Drive(func(i int) string { return c.ClientAddr(i % n) }, sessions, opts.SetupTimeout)
	}()
	select {
	case <-driven:
	case <-ctx.Done():
		return fmt.Errorf("interrupted")
	}
	elapsed := time.Since(start)

	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "serve:", f)
	}
	passed := sessions - len(failures)
	fmt.Printf("serve: %d/%d sessions decided %s in %v (%.0f sessions/sec)\n",
		passed, sessions, check, elapsed.Round(time.Millisecond), float64(passed)/elapsed.Seconds())
	// The Stats object is shared across the in-process daemons, so one line
	// carries the whole deployment's funnel and batching counters.
	fmt.Printf("serve: cluster totals: %s\n", c.Daemons[0].Stats())
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d sessions failed the %s check", len(failures), sessions, check)
	}
	if linger > 0 {
		fmt.Printf("serve: lingering %v for external scrapes\n", linger)
		select {
		case <-time.After(linger):
		case <-ctx.Done():
		}
	}
	return nil
}

// runRolling is the rolling-restart smoke: a journaled n-daemon cluster
// under continuous closed-loop load while each daemon is gracefully
// restarted in turn. Workers retry transient window errors (dials and
// rejections while a seat is down or the mesh degraded); the hard failures
// are a decided session that fails the workload's check or a cluster that
// stops making progress.
func runRolling(ctx context.Context, n, workers int, treeSpec string, t int, seed int64,
	metricsAt string, opts session.Options) error {
	if n < 2 {
		return fmt.Errorf("-rolling needs -cluster ≥ 2, got %d", n)
	}
	if workers < 1 {
		return fmt.Errorf("-sessions must be ≥ 1")
	}
	if workers > 64 {
		workers = 64 // closed-loop workers, not total sessions
	}
	if opts.JournalDir == "" {
		dir, err := os.MkdirTemp("", "treeaa-rolling-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.JournalDir = dir
	}
	w, err := session.NewWorkload(treeSpec, seed, n, t, sessionTTL, math.MaxInt, opts.Async)
	if err != nil {
		return err
	}
	if opts.MaxSessions < workers*2+n {
		opts.MaxSessions = workers*2 + n
	}
	c, err := session.StartCluster(n, opts)
	if err != nil {
		return err
	}
	defer c.Stop()
	closeObs, err := serveObs(metricsAt, 0, opts, clusterHealth(c, n))
	if err != nil {
		return err
	}
	defer closeObs()
	fmt.Printf("serve: rolling restart over %d journaled daemons, %d closed-loop workers\n", n, workers)

	var (
		stop       atomic.Bool
		decided    atomic.Int64
		retried    atomic.Int64
		mismatches atomic.Int64
		mu         sync.Mutex
		firstBad   string
	)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; !stop.Load(); i += workers {
				s := w.Spec(i)
				// Redial every iteration: the target's client port moves
				// across restarts, and a drained daemon resets old conns.
				cl, err := session.DialClient(c.ClientAddr(k%n), 2*time.Second)
				if err != nil {
					retried.Add(1)
					time.Sleep(50 * time.Millisecond)
					continue
				}
				resp, err := cl.Submit(s, 0, true)
				cl.Close()
				if err != nil {
					// Degraded/draining rejections and torn connections are
					// the expected restart-window noise; keep the load up.
					retried.Add(1)
					time.Sleep(20 * time.Millisecond)
					continue
				}
				got, err := resp.SimResult()
				if err != nil {
					retried.Add(1) // failed/expired in the window: retryable
					continue
				}
				if msg := w.Verify(s, got); msg != "" {
					mismatches.Add(1)
					mu.Lock()
					if firstBad == "" {
						firstBad = fmt.Sprintf("worker %d session %d: %s", k, i, msg)
					}
					mu.Unlock()
					return
				}
				decided.Add(1)
			}
		}()
	}

	rollErr := func() error {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted")
			}
			before := decided.Load()
			fmt.Printf("serve: restarting daemon %d (decided so far: %d)\n", i, before)
			if err := c.Restart(i); err != nil {
				return fmt.Errorf("rolling restart of daemon %d: %w", i, err)
			}
			// The mesh must heal and the load must demonstrably progress
			// past the restart before the next seat goes down.
			deadline := time.Now().Add(opts.SetupTimeout + 30*time.Second)
			for {
				healthy := clusterHealth(c, n)() == nil
				if healthy && decided.Load() > before {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("no decided sessions after restarting daemon %d (healthy=%v)", i, healthy)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		return nil
	}()
	stop.Store(true)
	wg.Wait()

	fmt.Printf("serve: rolling restart done: %d decided, %d retried in restart windows, %d mismatches\n",
		decided.Load(), retried.Load(), mismatches.Load())
	if rollErr != nil {
		return rollErr
	}
	if mismatches.Load() > 0 {
		return fmt.Errorf("rolling restart: %s", firstBad)
	}
	if decided.Load() == 0 {
		return fmt.Errorf("rolling restart: no session decided at all")
	}
	return nil
}
