// Package obs is the serving stack's observability surface: a stdlib-only
// HTTP endpoint exporting the daemon counters in Prometheus text exposition
// format (/metrics), a readiness probe wired to the daemon's health check
// (/healthz), and a structured per-session logger for the lifecycle events
// the session manager emits.
//
// The exporter reads the same atomic counters the hot path writes
// (metrics.ServeStats, journal.Stats), so scraping
// costs a handful of atomic loads and no locks beyond the latency samples.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/metrics"
)

// Options wires one daemon's counters and health check into the endpoint.
// Nil stat pointers simply omit that metric family.
type Options struct {
	// DaemonID labels every sample (`daemon="N"`), so one scrape target per
	// daemon still aggregates cleanly across a cluster dashboard.
	DaemonID int
	// Serve is the daemon's session/batching counters.
	Serve *metrics.ServeStats
	// Journal is the write-ahead journal's counters (nil when durability is
	// off — the journal families are then absent, not zero).
	Journal *journal.Stats
	// Ready is the /healthz probe: nil error = 200 ok. A nil func reports
	// ready unconditionally.
	Ready func() error
}

// sample is one exported time series: a metric name, optional extra labels
// (beyond the daemon label), and a value.
type sample struct {
	name   string
	labels string // `key="v"` fragments, comma-joined, may be empty
	help   string
	typ    string // counter | gauge
	value  float64
}

// collect snapshots every wired counter into samples. Called per scrape.
func (o Options) collect() []sample {
	var out []sample
	add := func(name, help, typ string, v float64, labels ...string) {
		out = append(out, sample{name: name, labels: strings.Join(labels, ","),
			help: help, typ: typ, value: v})
	}
	if s := o.Serve; s != nil {
		add("treeaa_sessions_submitted_total", "Sessions offered (local submits plus peer opens).", "counter", float64(s.Submitted.Load()))
		add("treeaa_sessions_admitted_total", "Sessions admitted past capacity and duplicate checks.", "counter", float64(s.Admitted.Load()))
		add("treeaa_sessions_decided_total", "Sessions that reached a decided outcome.", "counter", float64(s.Decided.Load()))
		add("treeaa_sessions_failed_total", "Sessions that reached a failed terminal state.", "counter", float64(s.Failed.Load()))
		add("treeaa_sessions_expired_total", "Deadline evictions (subset of failures).", "counter", float64(s.Expired.Load()))
		add("treeaa_sessions_rejected_total", "Rejected submissions by reason.", "counter", float64(s.RejectedCapacity.Load()), `reason="capacity"`)
		add("treeaa_sessions_rejected_total", "", "", float64(s.RejectedDuplicate.Load()), `reason="duplicate"`)
		add("treeaa_sessions_restored_total", "Sessions restored from a journal seal.", "counter", float64(s.RestoredTerminal.Load()), `kind="sealed"`)
		add("treeaa_peer_link_downs_total", "Peer mesh link failures observed.", "counter", float64(s.LinkDowns.Load()))
		add("treeaa_peer_link_redials_total", "Peer links re-established by the redial loop.", "counter", float64(s.LinkRedials.Load()))
		add("treeaa_mux_batches_total", "Batched peer-link writes (one write each).", "counter", float64(s.Batches.Load()))
		add("treeaa_mux_batch_frames_total", "Session frames carried inside batched writes.", "counter", float64(s.BatchFrames.Load()))
		add("treeaa_mux_batch_bytes_total", "Bytes written to peer links.", "counter", float64(s.BatchBytes.Load()))
		add("treeaa_mux_writes_total", "Peer-link writes by who made them: inline by the goroutine that stepped the engines, deferred to the link's flusher (back-pressure).", "counter", float64(s.BatchesInline.Load()), `by="inline"`)
		add("treeaa_mux_writes_total", "", "", float64(s.BatchesDeferred.Load()), `by="deferred"`)
		add("treeaa_engine_turns_total", "Engine turns by who ran them: inline by the goroutine that delivered their input, deferred to the daemon's timekeeper.", "counter", float64(s.TurnsInline.Load()), `by="inline"`)
		add("treeaa_engine_turns_total", "", "", float64(s.TurnsDeferred.Load()), `by="deferred"`)
		add("treeaa_client_bytes_total", "Client-API bytes written (binary protocol).", "counter", float64(s.ClientBytes.Load()))
		lat := s.SessionLatency()
		add("treeaa_session_latency_seconds", "Admission-to-terminal session latency quantiles.", "gauge", lat.P50/1e9, `quantile="0.5"`)
		add("treeaa_session_latency_seconds", "", "", lat.P99/1e9, `quantile="0.99"`)
	}
	if j := o.Journal; j != nil {
		add("treeaa_journal_appends_total", "Records appended to the session journal.", "counter", float64(j.Appends.Load()))
		add("treeaa_journal_append_bytes_total", "Journal bytes appended, framing included.", "counter", float64(j.AppendBytes.Load()))
		add("treeaa_journal_syncs_total", "fsync batches completed.", "counter", float64(j.Syncs.Load()))
		add("treeaa_journal_sync_errors_total", "fsync batches that returned an error.", "counter", float64(j.SyncErrors.Load()))
		add("treeaa_journal_depth", "Records appended but not yet durable.", "gauge", float64(j.Depth.Load()))
		add("treeaa_journal_segment", "Current journal segment sequence number.", "gauge", float64(j.Segment.Load()))
		add("treeaa_journal_last_sync_seconds", "Duration of the most recent fsync batch.", "gauge", float64(j.LastSyncNS.Load())/1e9)
		add("treeaa_journal_replayed_records", "Records replayed at the last recovery.", "gauge", float64(j.Replayed.Load()))
		add("treeaa_journal_replay_skips", "Torn-tail records dropped at the last recovery.", "gauge", float64(j.ReplaySkips.Load()))
	}
	return out
}

// render writes the samples in Prometheus text exposition format v0.0.4:
// families grouped, HELP/TYPE emitted once per family, stable order.
func (o Options) render(w io.Writer) {
	samples := o.collect()
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].name < samples[j].name })
	prev := ""
	for _, s := range samples {
		if s.name != prev {
			if s.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help)
			}
			if s.typ != "" {
				fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.typ)
			}
			prev = s.name
		}
		labels := fmt.Sprintf(`daemon="%d"`, o.DaemonID)
		if s.labels != "" {
			labels += "," + s.labels
		}
		fmt.Fprintf(w, "%s{%s} %g\n", s.name, labels, s.value)
	}
}

// Handler returns the observability mux: GET /metrics (Prometheus text)
// and GET /healthz (200 "ok" when Ready() is nil, 503 with the reason
// otherwise).
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		opts.render(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Ready != nil {
			if err := opts.Ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unready: %v\n", err)
				return
			}
		}
		io.WriteString(w, "ok\n")
	})
	return mux
}

// Server is one daemon's observability listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and serves the Handler until Close. The bound address
// (for ":0" style addrs) is available from Addr.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(opts), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

// NewSessionLogger builds the structured per-session logger the session
// manager emits lifecycle events through: JSON lines on w. The manager
// attaches the daemon id, session id, origin, state and reason to every
// event itself. Pass the logger as session.Options.SessionLog.
func NewSessionLogger(w io.Writer) *slog.Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo})
	return slog.New(h)
}
