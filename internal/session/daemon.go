package session

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// Options tunes one serving daemon. The zero value is usable: withDefaults
// fills every field.
type Options struct {
	// MaxSessions caps non-terminal sessions on this daemon — the admission
	// control knob. Submissions and peer opens beyond it are rejected.
	MaxSessions int
	// DefaultTTL is the session deadline applied when a spec's TTL is zero;
	// it also sets how long terminal sessions linger for status queries.
	DefaultTTL time.Duration

	SetupTimeout time.Duration // mux mesh establishment budget
	// RoundTimeout is the per-round barrier budget for every engine. In async
	// deployments there are no barriers; it is reused as the idle watchdog —
	// the longest an undecided seat tolerates total silence before the run
	// is declared wedged (the same reuse as transport's async driver).
	RoundTimeout time.Duration
	DrainTimeout time.Duration // graceful-shutdown wait for in-flight sessions

	// Async switches every engine on this daemon to the event-driven
	// asynchronous pipeline: messages are delivered to the protocol machine
	// on arrival, with no end-of-round barriers and no round timeouts. The
	// mode is a deployment property — it joins the cluster hash, so a sync
	// and an async daemon refuse to pair. Async daemons host honest seats
	// only.
	Async bool

	// JournalDir enables the write-ahead session journal: each daemon
	// journals admissions and terminal seals to <JournalDir>/daemon-<id> and
	// rebuilds its session table from them on startup — sealed sessions
	// restore their outcome, admitted-but-unsealed ones restore as failed.
	// Empty disables durability.
	JournalDir string
	// JournalSyncInterval is the journal writer's group-commit interval;
	// zero takes the journal package default (100ms).
	JournalSyncInterval time.Duration
	// JournalStats receives the journal's counters; nil allocates privately.
	JournalStats *journal.Stats

	// SessionLog, when set, receives one structured log line per session
	// lifecycle event (admitted, restored, terminal), keyed by session id.
	SessionLog *slog.Logger

	// Stats receives the daemon's counters; shared across daemons in tests.
	Stats *metrics.ServeStats
	// WrapConn, when set, wraps every peer connection on both ends, each end
	// with itself as the writer — the chaos injection seam, same contract as
	// transport.Options.WrapConn.
	WrapConn func(from, to sim.PartyID, conn net.Conn) net.Conn
	// Dialer establishes peer connections; nil means transport.DialRetry.
	Dialer func(addr string, deadline time.Time) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 1024
	}
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = 30 * time.Second
	}
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 10 * time.Second
	}
	if o.RoundTimeout <= 0 {
		o.RoundTimeout = 60 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Stats == nil {
		o.Stats = &metrics.ServeStats{}
	}
	if o.JournalStats == nil {
		o.JournalStats = &journal.Stats{}
	}
	if o.Dialer == nil {
		o.Dialer = transport.DialRetry
	}
	return o
}

// Daemon is one seat of an n-daemon serving deployment: it joins the peer
// mesh, accepts client requests, and runs this seat's engine for every
// admitted session.
type Daemon struct {
	id        sim.PartyID
	n         int
	peerAddrs []string
	clientArg string
	opts      Options

	mux *transport.Mux
	mgr *Manager

	// peerLn, when set before Run, is the pre-bound peer listener (the
	// in-process cluster binds first so peers know each other's ports).
	peerLn   net.Listener
	clientLn net.Listener

	ready chan struct{}
	// closedCh is closed after the drain completes: only then do client
	// connections die, so a client blocked in wait sees its session's
	// terminal outcome instead of a torn connection.
	closedCh chan struct{}
	clientWG sync.WaitGroup

	// killCh triggers the abrupt (kill -9 simulation) shutdown path.
	killCh   chan struct{}
	killOnce sync.Once
}

// NewDaemon configures seat id of a deployment whose peer listen addresses
// are peerAddrs (one per daemon, index = id). clientAddr is the client API
// listen address; ":0" style works, read the bound address from ClientAddr
// after Ready.
func NewDaemon(id int, peerAddrs []string, clientAddr string, opts Options) (*Daemon, error) {
	n := len(peerAddrs)
	if n < 2 {
		return nil, fmt.Errorf("session: need at least 2 daemons, got %d", n)
	}
	if id < 0 || id >= n {
		return nil, fmt.Errorf("session: daemon id %d out of range [0, %d)", id, n)
	}
	return &Daemon{
		id:        sim.PartyID(id),
		n:         n,
		peerAddrs: append([]string(nil), peerAddrs...),
		clientArg: clientAddr,
		opts:      opts.withDefaults(),
		ready:     make(chan struct{}),
		closedCh:  make(chan struct{}),
		killCh:    make(chan struct{}),
	}, nil
}

// Run brings the daemon up and serves until ctx is cancelled, then shuts
// down gracefully: stop admissions, drain in-flight sessions (up to
// DrainTimeout), and tear the mesh and client listener down without leaking
// goroutines.
func (d *Daemon) Run(ctx context.Context) error {
	peerLn := d.peerLn
	if peerLn == nil {
		var err error
		peerLn, err = net.Listen("tcp", d.peerAddrs[d.id])
		if err != nil {
			return fmt.Errorf("session: daemon %d peer listener: %w", d.id, err)
		}
	}
	clientLn, err := net.Listen("tcp", d.clientArg)
	if err != nil {
		peerLn.Close()
		return fmt.Errorf("session: daemon %d client listener: %w", d.id, err)
	}
	d.clientLn = clientLn

	cluster := clusterHash(d.peerAddrs, d.opts.Async)
	d.mgr = newManager(d)
	// Journal recovery runs before the mux exists: the session table is
	// rebuilt from disk in isolation, then the mesh comes up.
	if d.opts.JournalDir != "" {
		dir := filepath.Join(d.opts.JournalDir, fmt.Sprintf("daemon-%d", d.id))
		jopts := journal.Options{
			SyncInterval: d.opts.JournalSyncInterval,
			Stats:        d.opts.JournalStats,
		}
		if err := d.mgr.recoverJournal(dir, jopts); err != nil {
			peerLn.Close()
			clientLn.Close()
			d.mgr.stop()
			return fmt.Errorf("session: daemon %d journal recovery: %w", d.id, err)
		}
	}
	d.mux = transport.NewMux(transport.MuxConfig{
		ID: d.id, Addrs: d.peerAddrs, Hash: cluster,
		SetupTimeout: d.opts.SetupTimeout, RoundTimeout: d.opts.RoundTimeout,
		Dialer: d.opts.Dialer, WrapConn: d.opts.WrapConn, Stats: d.opts.Stats, Redial: true,
		Handler: func(from sim.PartyID, _ int, body []byte) error {
			if body[0] != transport.FrameMuxSession {
				return fmt.Errorf("unexpected frame type 0x%02x", body[0])
			}
			return d.mgr.handleRaw(from, body[1:])
		},
		OnDown: d.mgr.linkDown,
		OnUp:   func(peer sim.PartyID, _ int) { d.mgr.linkUp(peer) },
	})
	// The peer listener closes with the mux, before its teardown.
	host := transport.NewAcceptHost(peerLn, d.mux.Accept)
	if err := d.mux.Start(); err != nil {
		clientLn.Close()
		host.Close()
		d.mux.Close()
		d.mgr.stop()
		if jw := d.mgr.jw; jw != nil {
			jw.Close()
		}
		return err
	}
	d.clientWG.Add(1)
	go d.acceptClients()
	close(d.ready)

	select {
	case <-ctx.Done():
		// Graceful shutdown. Order matters: drain first (in-flight sessions
		// reach their terminal states and blocked client waits get real
		// answers), then cut the client connections, then the mesh — the
		// mux's final flush ships queued decide frames to peers before the
		// sockets die. The journal closes last with a final fsync, so every
		// seal written during the drain is durable before Run returns: a
		// restart never sees a session it reported decided as pending again.
		d.mgr.drain(d.opts.DrainTimeout)
		close(d.closedCh)
		d.clientLn.Close()
		host.Close()
		d.mux.Close()
		d.mgr.stop()
		if jw := d.mgr.jw; jw != nil {
			jw.Close()
		}
		d.clientWG.Wait()
	case <-d.killCh:
		// Abrupt shutdown — the in-process stand-in for kill -9. No drain, no
		// final flush: client connections reset, peer sockets reset, and the
		// journal is abandoned with its buffered (unsynced) tail discarded.
		// Client connections die before the journal releases any sync
		// tickets, so no client can observe an outcome the journal lost.
		close(d.closedCh)
		d.clientLn.Close()
		host.Close()
		d.mux.Kill()
		d.mgr.stop()
		if jw := d.mgr.jw; jw != nil {
			jw.Abandon()
		}
		d.clientWG.Wait()
	}
	return nil
}

// Kill triggers the abrupt shutdown path: no drain, no flush, no journal
// sync — everything a kill -9 would deny the process. Run returns once the
// teardown finishes. Safe to call more than once.
func (d *Daemon) Kill() {
	d.killOnce.Do(func() { close(d.killCh) })
}

// Health reports daemon readiness (nil = ready): journal replay complete,
// every peer link up, admissions open, and no sticky journal write error.
func (d *Daemon) Health() error {
	select {
	case <-d.ready:
	default:
		return fmt.Errorf("session: daemon %d starting", d.id)
	}
	if err := d.mgr.Health(); err != nil {
		return err
	}
	return d.mgr.journalErr()
}

// Ready is closed once the mesh is up and the client API is accepting.
func (d *Daemon) Ready() <-chan struct{} { return d.ready }

// ClientAddr returns the bound client API address; valid after Ready.
func (d *Daemon) ClientAddr() string { return d.clientLn.Addr().String() }

// Manager exposes the session table for in-process callers (the smoke
// drivers submit through it directly); valid after Ready.
func (d *Daemon) Manager() *Manager { return d.mgr }

// Stats returns the daemon's counters.
func (d *Daemon) Stats() *metrics.ServeStats { return d.opts.Stats }

// clusterHash pins the deployment identity the mux hello checks: same
// daemon set, same order, same execution mode — or the handshake fails.
// Folding the mode in means a sync and an async daemon can never exchange a
// single session frame.
func clusterHash(addrs []string, async bool) uint64 {
	mode := "sync"
	if async {
		mode = "async"
	}
	parts := append([]string{"serve", mode, strconv.Itoa(len(addrs))}, addrs...)
	return transport.DeriveSession(parts...)
}

// Cluster is an in-process deployment: n daemons on loopback, the harness
// for tests, the smoke target and the bench. Each daemon has its own
// context, so individual members can be killed (abruptly), restarted
// (gracefully), or brought back while the rest keep serving.
type Cluster struct {
	mu      sync.Mutex
	Daemons []*Daemon // live daemon per seat; slots are replaced on restart
	addrs   []string
	opts    Options
	cancels []context.CancelFunc
	dones   []chan error // buffered(1); the exit value is re-posted after reads
	n       int

	stopOnce sync.Once
	stopErr  error
}

// StartCluster binds n loopback daemons, starts them, and waits until every
// one is ready. Callers submit via clients dialed at ClientAddr(i) or
// through Daemons[i].Manager(). Stop with Stop.
func StartCluster(n int, opts Options) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("session: need at least 2 daemons, got %d", n)
	}
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	c := &Cluster{
		Daemons: make([]*Daemon, n),
		addrs:   addrs,
		opts:    opts,
		cancels: make([]context.CancelFunc, n),
		dones:   make([]chan error, n),
		n:       n,
	}
	for i := 0; i < n; i++ {
		if err := c.launch(i, listeners[i]); err != nil {
			c.Stop()
			for _, l := range listeners[i+1:] {
				l.Close()
			}
			return nil, err
		}
	}
	setup := opts.withDefaults().SetupTimeout
	deadline := time.Now().Add(setup)
	for i := 0; i < n; i++ {
		if err := c.waitReady(i, deadline); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// launch starts seat i with a fresh Daemon and its own context. ln, when
// non-nil, is the pre-bound peer listener; nil makes Run bind addrs[i]
// itself (the restart path, after the old daemon released the port).
func (c *Cluster) launch(i int, ln net.Listener) error {
	d, err := NewDaemon(i, c.addrs, "127.0.0.1:0", c.opts)
	if err != nil {
		return err
	}
	d.peerLn = ln
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	c.mu.Lock()
	c.Daemons[i] = d
	c.cancels[i] = cancel
	c.dones[i] = done
	c.mu.Unlock()
	go func() { done <- d.Run(ctx) }()
	return nil
}

// waitReady blocks until seat i reports ready, its Run exits (error), or
// the deadline passes.
func (c *Cluster) waitReady(i int, deadline time.Time) error {
	c.mu.Lock()
	d, done := c.Daemons[i], c.dones[i]
	c.mu.Unlock()
	if d == nil {
		return fmt.Errorf("session: daemon %d never launched", i)
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-d.Ready():
		return nil
	case err := <-done:
		done <- err // leave the exit value for Stop
		if err == nil {
			err = fmt.Errorf("session: daemon %d exited during setup", i)
		}
		return err
	case <-timer.C:
		return fmt.Errorf("session: daemon %d not ready within the %v setup budget", i, c.opts.withDefaults().SetupTimeout)
	}
}

// waitExit collects seat i's Run result and re-posts it so Stop (or a later
// waiter) sees the same value.
func (c *Cluster) waitExit(i int) error {
	c.mu.Lock()
	done := c.dones[i]
	c.mu.Unlock()
	err := <-done
	done <- err
	return err
}

// Kill tears seat i down abruptly — the kill -9 stand-in: no drain, no
// flush, journal abandoned with its unsynced tail. Returns when Run has
// exited. The seat can be brought back with Start.
func (c *Cluster) Kill(i int) error {
	c.mu.Lock()
	d := c.Daemons[i]
	c.mu.Unlock()
	d.Kill()
	return c.waitExit(i)
}

// Start relaunches seat i after a Kill or graceful stop. The new daemon
// rebinds the same peer address (the cluster identity hash pins the address
// set) but a fresh client port — read it from ClientAddr(i). Blocks until
// the seat is ready: journal replayed and the mesh links re-established.
func (c *Cluster) Start(i int) error {
	if err := c.launch(i, nil); err != nil {
		return err
	}
	return c.waitReady(i, time.Now().Add(c.opts.withDefaults().SetupTimeout))
}

// Restart stops seat i gracefully (drain, flush, journal sync) and brings
// it back, waiting for readiness — the rolling-restart building block.
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	cancel := c.cancels[i]
	c.mu.Unlock()
	cancel()
	if err := c.waitExit(i); err != nil {
		return fmt.Errorf("session: daemon %d graceful stop: %w", i, err)
	}
	return c.Start(i)
}

// Daemon returns the live daemon at seat i (restart-safe accessor).
func (c *Cluster) Daemon(i int) *Daemon {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Daemons[i]
}

// ClientAddr returns daemon i's current client API address, or "" while
// the daemon at that seat is not ready yet (a restart in progress has
// published it before its listener is bound): a dial to "" fails at once
// and the caller retries.
func (c *Cluster) ClientAddr(i int) string {
	d := c.Daemon(i)
	select {
	case <-d.Ready():
		return d.ClientAddr()
	default:
		return ""
	}
}

// Stop cancels every daemon and waits for all of them to exit, returning
// the first error. Idempotent: later calls return the first call's result.
func (c *Cluster) Stop() error {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		cancels := append([]context.CancelFunc(nil), c.cancels...)
		c.mu.Unlock()
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
		for i := range cancels {
			if cancels[i] == nil {
				continue
			}
			if err := c.waitExit(i); err != nil && c.stopErr == nil {
				c.stopErr = err
			}
		}
	})
	return c.stopErr
}
