package session

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
)

func startTestCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	c, err := StartCluster(n, opts)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Stop(); err != nil {
			t.Errorf("cluster stop: %v", err)
		}
	})
	return c
}

// slowConn delays every peer-link write by a fixed amount — the test lever
// for stretching round trips.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(b)
}

func slowLinks(delay time.Duration) func(_, _ sim.PartyID, conn net.Conn) net.Conn {
	return func(_, _ sim.PartyID, conn net.Conn) net.Conn {
		return slowConn{Conn: conn, delay: delay}
	}
}

// submitAndWait drives one session through daemon origin's client API and
// returns its terminal response.
func submitAndWait(t *testing.T, c *Cluster, origin int, spec Spec) *Response {
	t.Helper()
	cl, err := DialClient(c.ClientAddr(origin), 5*time.Second)
	if err != nil {
		t.Fatalf("dial daemon %d: %v", origin, err)
	}
	defer cl.Close()
	resp, err := cl.Submit(spec, 0, true)
	if err != nil {
		t.Fatalf("submit to daemon %d: %v", origin, err)
	}
	return resp
}

// TestServeMatchesSim pins the tentpole invariant: a served session's
// Result is byte-identical (DeepEqual) to sim.Run on the same spec, across
// tree shapes, party counts, and origin daemons.
func TestServeMatchesSim(t *testing.T) {
	cases := []struct {
		n    int
		spec Spec
	}{
		{4, Spec{Tree: "path:8"}},
		{4, Spec{Tree: "star:9"}},
		{4, Spec{Tree: "spider:3:4"}},
		{5, Spec{Tree: "caterpillar:4:2"}},
		{4, Spec{Tree: "random:12", Seed: 7}},
		{7, Spec{Tree: "path:16", T: 2}},
		{4, Spec{Tree: "figure3"}},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_n%d", tc.spec.Tree, tc.n), func(t *testing.T) {
			t.Parallel()
			c := startTestCluster(t, tc.n, Options{})
			want, err := Oracle(tc.n, tc.spec)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			origin := i % tc.n
			resp := submitAndWait(t, c, origin, tc.spec)
			got, err := resp.SimResult()
			if err != nil {
				t.Fatalf("session result: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("served result diverges from sim.Run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestManySessionsConcurrent is the acceptance load: ≥500 concurrent
// sessions over a 4-daemon loopback cluster, inputs rotated per session,
// every Result DeepEqual to its oracle. Submissions spread across all
// daemons so every seat plays origin.
func TestManySessionsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	const (
		n        = 4
		sessions = 500
	)
	stats := &metrics.ServeStats{}
	c := startTestCluster(t, n, Options{MaxSessions: sessions + 8, Stats: stats})

	tr, err := cli.ParseSpaceSpec("spider:3:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	specFor := func(i int) Spec {
		return Spec{Tree: "spider:3:3", Inputs: tr.RotateInputs(n, i), TTL: 2 * time.Minute}
	}
	// Distinct input rotations repeat with period NumVertices; oracles are
	// computed once per rotation, not per session.
	oracles := make(map[string]*sim.Result)
	for i := 0; i < tr.NumVertices(); i++ {
		spec := specFor(i)
		want, err := Oracle(n, spec)
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		oracles[spec.Inputs] = want
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := specFor(w)
			cl, err := DialClient(c.ClientAddr(w%n), 10*time.Second)
			if err != nil {
				errs <- fmt.Errorf("session %d: dial: %w", w, err)
				return
			}
			defer cl.Close()
			resp, err := cl.Submit(spec, 0, true)
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", w, err)
				return
			}
			got, err := resp.SimResult()
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", w, err)
				return
			}
			if !reflect.DeepEqual(got, oracles[spec.Inputs]) {
				errs <- fmt.Errorf("session %d: result diverges from oracle", w)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := stats.Decided.Load(); got < sessions {
		t.Errorf("decided %d sessions, want ≥ %d", got, sessions)
	}
	if stats.RejectedCapacity.Load() != 0 {
		t.Errorf("unexpected capacity rejections: %d", stats.RejectedCapacity.Load())
	}
}

// TestAdmissionRejectsAtCapacity pins admission control: with MaxSessions
// slots full of slow sessions, the next submit is rejected with a capacity
// error and counted, and the slot holders still decide.
func TestAdmissionRejectsAtCapacity(t *testing.T) {
	const cap = 3
	stats := &metrics.ServeStats{}
	c := startTestCluster(t, 4, Options{MaxSessions: cap, Stats: stats,
		// Slowed links keep the slot holders in flight while the
		// over-capacity submit lands.
		WrapConn: slowLinks(5 * time.Millisecond)})
	cl, err := DialClient(c.ClientAddr(0), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	spec := Spec{Tree: "kary:2:4", TTL: time.Minute}
	sids := make([]uint64, cap)
	for i := range sids {
		resp, err := cl.Submit(spec, 0, false)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		sids[i] = resp.SID
	}
	if _, err := cl.Submit(spec, 0, false); err == nil {
		t.Fatal("submit beyond capacity succeeded")
	}
	if got := stats.RejectedCapacity.Load(); got == 0 {
		t.Error("capacity rejection not counted")
	}
	for _, sid := range sids {
		resp, err := cl.Wait(sid)
		if err != nil {
			t.Fatalf("wait %#x: %v", sid, err)
		}
		if !resp.Decided() {
			t.Fatalf("session %#x ended %s: %s", sid, resp.State, resp.Err)
		}
	}
}

// TestDuplicateSubmitRejected pins the duplicate-sid check for
// client-chosen ids, both while the first session is in flight and after
// it decided (the id lingers in the table).
func TestDuplicateSubmitRejected(t *testing.T) {
	stats := &metrics.ServeStats{}
	c := startTestCluster(t, 4, Options{Stats: stats})
	cl, err := DialClient(c.ClientAddr(1), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const sid = 0xBEEF
	spec := Spec{Tree: "path:6", TTL: time.Minute}
	if _, err := cl.Submit(spec, sid, false); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := cl.Submit(spec, sid, false); err == nil {
		t.Fatal("duplicate submit while in flight succeeded")
	}
	if _, err := cl.Wait(sid); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if _, err := cl.Submit(spec, sid, false); err == nil {
		t.Fatal("duplicate submit after decision succeeded")
	}
	if got := stats.RejectedDuplicate.Load(); got < 2 {
		t.Errorf("duplicate rejections = %d, want ≥ 2", got)
	}
}

// TestDeadlineEvictionMidRound pins deadline eviction: a session whose TTL
// is far shorter than its rounds can complete (the flush interval is
// stretched to slow every round) must expire on every daemon, release its
// slot, and report StateExpired to a waiting client.
func TestDeadlineEvictionMidRound(t *testing.T) {
	stats := &metrics.ServeStats{}
	c := startTestCluster(t, 4, Options{Stats: stats,
		WrapConn: slowLinks(20 * time.Millisecond)})
	cl, err := DialClient(c.ClientAddr(0), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// kary:2:5 runs tens of rounds; at ≥20ms per link write it cannot
	// finish inside 120ms, so the deadline fires mid-execution.
	resp, err := cl.Submit(Spec{Tree: "kary:2:5", TTL: 120 * time.Millisecond}, 0, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.State != StateExpired.String() {
		t.Fatalf("session ended %s (%s), want expired", resp.State, resp.Err)
	}
	if stats.Expired.Load() == 0 {
		t.Error("expiry not counted")
	}
	// The slot must be free again: a healthy session on the same daemon
	// still decides.
	ok, err := cl.Submit(Spec{Tree: "path:5", TTL: time.Minute}, 0, true)
	if err != nil {
		t.Fatalf("follow-up submit: %v", err)
	}
	if !ok.Decided() {
		t.Fatalf("follow-up session ended %s: %s", ok.State, ok.Err)
	}
}

// TestStatusLifecycle pins the status op: unknown ids error; a decided
// session reports state "decided" with its result attached.
func TestStatusLifecycle(t *testing.T) {
	c := startTestCluster(t, 4, Options{})
	cl, err := DialClient(c.ClientAddr(2), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Status(0x123456); err == nil {
		t.Error("status of unknown sid succeeded")
	}
	resp, err := cl.Submit(Spec{Tree: "star:7", TTL: time.Minute}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(resp.SID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !st.Decided() {
		t.Fatalf("status reports %s, want decided", st.State)
	}
	got, err := st.SimResult()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Oracle(4, Spec{Tree: "star:7"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("status result diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestGracefulShutdownDrains pins the drain path: Stop while sessions are
// in flight lets them finish (inside DrainTimeout) rather than killing the
// mesh under them.
func TestGracefulShutdownDrains(t *testing.T) {
	c := startTestCluster(t, 4, Options{DrainTimeout: 30 * time.Second})
	cl, err := DialClient(c.ClientAddr(0), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Submit(Spec{Tree: "kary:2:4", TTL: time.Minute}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Response, 1)
	go func() {
		r, err := cl.Wait(resp.SID)
		if err != nil {
			done <- nil
			return
		}
		done <- r
	}()
	// Stop concurrently: drain must let the in-flight session decide.
	if err := c.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	select {
	case r := <-done:
		if r == nil || !r.Decided() {
			state, reason := "connection lost", ""
			if r != nil {
				state, reason = r.State, r.Err
			}
			t.Fatalf("in-flight session ended %s (%s), want decided", state, reason)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wait did not return after drain")
	}
}

// TestStartClusterReportsSetupBudget: a daemon that is still meshing when
// the setup deadline passes is reported against the budget it was given —
// not against time.Until(deadline) read after the timer fired, which is a
// negative duration — and the daemons whose setup then fails tear down
// (their one Manager.stop returns).
func TestStartClusterReportsSetupBudget(t *testing.T) {
	const budget = 50 * time.Millisecond
	_, err := StartCluster(2, Options{
		SetupTimeout: budget,
		Dialer: func(addr string, deadline time.Time) (net.Conn, error) {
			time.Sleep(time.Until(deadline) + 100*time.Millisecond) // outlast the deadline
			return nil, errors.New("peer unreachable")
		},
	})
	if err == nil {
		t.Fatal("cluster came up without peer links")
	}
	if want := "not ready within the 50ms setup budget"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to contain %q", err, want)
	}
}
