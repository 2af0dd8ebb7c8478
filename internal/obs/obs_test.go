package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/metrics"
)

func scrape(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestMetricsExposition(t *testing.T) {
	serve := &metrics.ServeStats{}
	serve.Submitted.Add(7)
	serve.Decided.Add(5)
	serve.RejectedCapacity.Add(2)
	serve.RestoredTerminal.Add(3)
	serve.AddSessionLatency(10 * time.Millisecond)
	jstats := &journal.Stats{}
	jstats.Appends.Add(42)
	jstats.Depth.Add(4)
	chaos := &metrics.ChaosStats{}
	chaos.Delays.Add(9)

	h := Handler(Options{DaemonID: 3, Serve: serve, Journal: jstats, Chaos: chaos})
	code, body := scrape(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`treeaa_sessions_submitted_total{daemon="3"} 7`,
		`treeaa_sessions_decided_total{daemon="3"} 5`,
		`treeaa_sessions_rejected_total{daemon="3",reason="capacity"} 2`,
		`treeaa_sessions_restored_total{daemon="3",kind="sealed"} 3`,
		`treeaa_journal_appends_total{daemon="3"} 42`,
		`treeaa_journal_depth{daemon="3"} 4`,
		`treeaa_chaos_faults_total{daemon="3",kind="delay"} 9`,
		`treeaa_session_latency_seconds{daemon="3",quantile="0.5"} 0.01`,
		"# TYPE treeaa_sessions_decided_total counter",
		"# HELP treeaa_journal_depth Records appended but not yet durable.",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	// HELP/TYPE must not repeat inside a multi-sample family.
	if n := strings.Count(body, "# TYPE treeaa_sessions_rejected_total"); n != 1 {
		t.Errorf("TYPE line for rejected_total appears %d times, want 1", n)
	}
}

func TestMetricsOmitsUnwiredFamilies(t *testing.T) {
	h := Handler(Options{DaemonID: 0, Serve: &metrics.ServeStats{}})
	_, body := scrape(t, h, "/metrics")
	if strings.Contains(body, "treeaa_journal_") {
		t.Error("journal family exported without a journal")
	}
	if strings.Contains(body, "treeaa_chaos_") {
		t.Error("chaos family exported without chaos stats")
	}
}

func TestHealthz(t *testing.T) {
	var err error
	h := Handler(Options{Ready: func() error { return err }})
	if code, body := scrape(t, h, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("ready probe: %d %q", code, body)
	}
	err = fmt.Errorf("replaying journal")
	if code, body := scrape(t, h, "/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "replaying journal") {
		t.Fatalf("unready probe: %d %q", code, body)
	}
	// Nil Ready func is unconditionally ready.
	if code, _ := scrape(t, Handler(Options{}), "/healthz"); code != http.StatusOK {
		t.Fatalf("nil-ready probe: %d", code)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Options{Serve: &metrics.ServeStats{}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape over TCP: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Fatal("scrape succeeded after Close")
	}
}

func TestSessionLoggerJSON(t *testing.T) {
	var buf strings.Builder
	lg := NewSessionLogger(&buf)
	lg.Info("session admitted", "daemon", 2, "sid", "0x2000000000001", "state", "pending")
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "session admitted" || rec["sid"] != "0x2000000000001" {
		t.Fatalf("unexpected log record: %v", rec)
	}
}
