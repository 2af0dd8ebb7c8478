package session

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// journalRecords walks one segment's `uvarint(len) | crc32c | body` records
// up to the preallocated zero tail, returning each record's end offset and
// decoded payload.
func journalRecords(t *testing.T, data []byte) (ends []int, payloads []any) {
	t.Helper()
	for off := 0; off < len(data); {
		sz, k := binary.Uvarint(data[off:])
		if k <= 0 || sz == 0 {
			break
		}
		body := data[off+k+4 : off+k+4+int(sz)]
		p, err := wire.Decode(body)
		if err != nil {
			t.Fatalf("journal record at offset %d: %v", off, err)
		}
		off += k + 4 + int(sz)
		ends = append(ends, off)
		payloads = append(payloads, p)
	}
	return ends, payloads
}

// recoverBare runs journal recovery on a Manager with no daemon around it —
// no mux, no listeners — and returns it with the writer open. done closes
// the writer (syncing the seals recovery appended) and stops the timekeeper.
func recoverBare(t *testing.T, id, n int, dir string) (m *Manager, done func()) {
	t.Helper()
	m = newManager(&Daemon{id: sim.PartyID(id), n: n, opts: Options{}.withDefaults()})
	if err := m.recoverJournal(dir, journal.Options{SegmentBytes: 64 << 10}); err != nil {
		t.Fatalf("daemon %d: recovering %s: %v", id, dir, err)
	}
	return m, func() {
		if err := m.jw.Close(); err != nil {
			t.Fatalf("daemon %d: closing recovered journal: %v", id, err)
		}
		m.stop()
	}
}

// restoredTable snapshots a recovered Manager's sessions for comparison.
type restoredSession struct {
	Origin sim.PartyID
	Out    Outcome
}

func restoredTable(m *Manager) map[uint64]restoredSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	table := make(map[uint64]restoredSession, len(m.table))
	for sid, s := range m.table {
		table[sid] = restoredSession{Origin: s.origin, Out: m.outcomeLocked(s)}
	}
	return table
}

// crashPointWorkload drives the scripted mix through a journaled 4-daemon
// cluster and stops it: decided tree and graph sessions from every origin,
// submitted together so their records interleave; two sessions whose TTL
// cannot be met — expired by whichever daemon's clock notices first, aborted
// on the rest; and one failed mid-run the way a seat error fails it, aborted
// everywhere. It returns the journal directory, each decided session's
// oracle by sid, and how many sessions ran.
func crashPointWorkload(t *testing.T, n int) (dir string, oracles map[uint64]*sim.Result, sessions int) {
	t.Helper()
	opts := durableOpts(t)
	opts.WrapConn = slowLinks(2 * time.Millisecond) // no session can beat a 1ms TTL
	c, err := StartCluster(n, opts)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer c.Stop()

	decided := []Spec{
		{Tree: "path:8"},
		{Tree: "star:9"},
		{Tree: "spider:3:4"},
		{Tree: "random:12", Seed: 7},
		{Tree: "figure3"},
		{Tree: "graph:cliquechain:3:4"},
		{Tree: "graph:cycle:9"},
	}
	doomed := []Spec{
		{Tree: "path:16", TTL: time.Millisecond},
		{Tree: "graph:cactus:3:4", TTL: time.Millisecond},
	}
	oracles = make(map[uint64]*sim.Result)
	var waits []<-chan Outcome
	submit := func(i int, spec Spec) uint64 {
		mgr := c.Daemon(i % n).Manager()
		sid, err := mgr.Submit(spec, 0)
		if err != nil {
			t.Fatalf("submit %q: %v", spec.Tree, err)
		}
		ch, err := mgr.Wait(sid)
		if err != nil {
			t.Fatalf("wait %q: %v", spec.Tree, err)
		}
		waits = append(waits, ch)
		return sid
	}
	for i, spec := range decided {
		want, err := Oracle(n, spec)
		if err != nil {
			t.Fatalf("oracle %q: %v", spec.Tree, err)
		}
		oracles[submit(i, spec)] = want
	}
	for i, spec := range doomed {
		submit(i, spec)
	}
	mgr := c.Daemon(2).Manager()
	aborted := submit(2, Spec{Tree: "path:16"})
	mgr.mu.Lock()
	s := mgr.table[aborted]
	mgr.mu.Unlock()
	mgr.fail(s, StateFailed, "aborted by the test", true)
	for _, ch := range waits {
		out := <-ch
		want, isDecided := oracles[out.SID]
		switch {
		case isDecided && !reflect.DeepEqual(out.Result, want):
			t.Fatalf("session %#x: %s (%s), result diverges from oracle", out.SID, out.State, out.Err)
		case !isDecided && out.State == StateDecided:
			t.Fatalf("session %#x decided, want it expired or aborted", out.SID)
		}
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("cluster stop: %v", err)
	}
	return opts.JournalDir, oracles, len(waits)
}

// TestJournalCrashPoints enumerates every crash point of every daemon's
// journal instead of sampling them with kill -9: the journal of a scripted
// workload is cut at each record boundary and in the middle of each record,
// and recovery from the cut must (a) restore every session whose seal lies
// wholly before the cut with the sealed outcome — decided ones DeepEqual to
// the oracle, (b) restore every admitted-but-unsealed session as failed,
// leaving nothing pending, (c) keep the id sequence past every restored
// local sid, and (d) leave a directory a second recovery restores
// identically.
func TestJournalCrashPoints(t *testing.T) {
	const n = 4
	root, oracles, sessions := crashPointWorkload(t, n)
	cuts := 0
	sealed := make(map[State]int) // the mix the cuts run over, all daemons
	for id := 0; id < n; id++ {
		segs, err := filepath.Glob(filepath.Join(root, fmt.Sprintf("daemon-%d", id), "seg-*.waj"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("daemon %d: segments %v (err %v), want exactly one", id, segs, err)
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		ends, payloads := journalRecords(t, data)
		for _, p := range payloads {
			if seal, ok := p.(wire.JournalSeal); ok {
				sealed[State(seal.State)]++
			}
		}
		if len(payloads) != 2*sessions {
			t.Fatalf("daemon %d: %d records, want an open and a seal for each of %d sessions",
				id, len(payloads), sessions)
		}
		for k := 0; k <= len(ends); k++ {
			start := 0
			if k > 0 {
				start = ends[k-1]
			}
			cutAt := []int{start} // boundary: records [0,k) survive whole
			if k < len(ends) {
				cutAt = append(cutAt, (start+ends[k])/2) // record k torn in half
			}
			for _, cut := range cutAt {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				checkRecovery(t, id, n, dir, payloads[:k], oracles, fmt.Sprintf("daemon %d cut at byte %d", id, cut))
				cuts++
			}
		}
	}
	if sealed[StateDecided] == 0 || sealed[StateFailed] == 0 || sealed[StateExpired] == 0 {
		t.Fatalf("workload sealed %v, want decided, failed and expired all present", sealed)
	}
	t.Logf("%d crash points recovered over seals %v", cuts, sealed)
}

// checkRecovery recovers dir twice on bare Managers and holds the first
// result against the records known to precede the cut.
func checkRecovery(t *testing.T, id, n int, dir string, survived []any, oracles map[uint64]*sim.Result, ctx string) {
	t.Helper()
	opens := make(map[uint64]wire.JournalOpen)
	seals := make(map[uint64]wire.JournalSeal)
	for _, p := range survived {
		switch rec := p.(type) {
		case wire.JournalOpen:
			opens[rec.SID] = rec
		case wire.JournalSeal:
			seals[rec.SID] = rec
		}
	}

	m, done := recoverBare(t, id, n, dir)
	first := restoredTable(m)
	if m.inflight != 0 {
		t.Fatalf("%s: inflight = %d after recovery", ctx, m.inflight)
	}
	if len(first) != len(opens) {
		t.Fatalf("%s: restored %d sessions, journal admits %d", ctx, len(first), len(opens))
	}
	for sid, open := range opens {
		got, ok := first[sid]
		if !ok {
			t.Fatalf("%s: admitted session %#x not restored", ctx, sid)
		}
		if got.Origin != open.Origin {
			t.Fatalf("%s: session %#x origin %d, want %d", ctx, sid, got.Origin, open.Origin)
		}
		seal, sealed := seals[sid]
		if !sealed {
			if got.Out.State != StateFailed || got.Out.Err != reasonRestarted || got.Out.Result != nil {
				t.Fatalf("%s: unsealed session %#x restored as %s (%s)", ctx, sid, got.Out.State, got.Out.Err)
			}
		} else {
			if got.Out.State != State(seal.State) || got.Out.Err != seal.Reason {
				t.Fatalf("%s: session %#x restored as %s (%s), sealed as %s (%s)",
					ctx, sid, got.Out.State, got.Out.Err, State(seal.State), seal.Reason)
			}
			// Only the origin's seal carries the assembled Result.
			if want := oracles[sid]; want != nil && open.Origin == sim.PartyID(id) {
				if got.Out.State != StateDecided || !reflect.DeepEqual(got.Out.Result, want) {
					t.Fatalf("%s: sealed session %#x restored as %s with %+v, want decided with %+v",
						ctx, sid, got.Out.State, got.Out.Result, want)
				}
			}
		}
		if seq := sid & (1<<48 - 1); open.Origin == sim.PartyID(id) && m.nextSeq <= seq {
			t.Fatalf("%s: nextSeq %d not past restored local sid %#x", ctx, m.nextSeq, sid)
		}
	}
	done()

	m, done = recoverBare(t, id, n, dir)
	if second := restoredTable(m); !reflect.DeepEqual(second, first) {
		t.Fatalf("%s: second recovery diverges:\n got %+v\nwant %+v", ctx, second, first)
	}
	done()
}

// TestRecoverSkipsJournalFrames replays a journal in the shape older builds
// wrote — an inbound-frame record after every admission — and requires the
// same table the frame-less journal restores.
func TestRecoverSkipsJournalFrames(t *testing.T) {
	const n = 4
	root, _, _ := crashPointWorkload(t, n)
	plain := filepath.Join(root, "daemon-0")
	segs, err := filepath.Glob(filepath.Join(plain, "seg-*.waj"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want exactly one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, payloads := journalRecords(t, data)

	framed := t.TempDir()
	jw, err := journal.Open(journal.Options{Dir: framed})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, p := range payloads {
		if err := jw.Append(p); err != nil {
			t.Fatal(err)
		}
		if open, ok := p.(wire.JournalOpen); ok {
			body, err := wire.Encode(wire.SessionEOR{SID: open.SID, Round: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := jw.Append(wire.JournalFrame{From: 1, Body: body}); err != nil {
				t.Fatal(err)
			}
			frames++
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("workload journal holds no admission to frame")
	}

	m, done := recoverBare(t, 0, n, plain)
	want := restoredTable(m)
	done()
	m, done = recoverBare(t, 0, n, framed)
	got := restoredTable(m)
	done()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal with %d frame records restores differently:\n got %+v\nwant %+v", frames, got, want)
	}
}
