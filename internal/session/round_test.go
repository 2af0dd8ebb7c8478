package session

import (
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"treeaa/internal/core"
	"treeaa/internal/driver"
	"treeaa/internal/metrics"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// TestSessionRoundFrameCount pins what a served session puts on the
// cluster's links, as a count: one frame per ordered link per communication
// round — the schedule's last round, the processing step, sends nothing and
// ends at its step — plus the origin's opens and the peers' decides.
func TestSessionRoundFrameCount(t *testing.T) {
	const n, tc = 4, 1
	for _, c := range []struct {
		tree   string
		rounds int // the round sim.Run stops in
		frames int64
	}{
		{"spider:3:3", 13, 150}, // 12 rounds × 12 links + 3 opens + 3 decides
		{"path:40", 7, 78},      //  6 rounds × 12 links + 3 + 3
	} {
		spec := Spec{Tree: c.tree, T: tc, TTL: time.Minute}
		ps, err := parseSpec(spec, n, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.Rounds(ps.space.Tree, tc) + 1; got != c.rounds {
			t.Fatalf("%s: schedule ends in round %d, the pin says %d", c.tree, got, c.rounds)
		}
		want, err := Oracle(n, spec)
		if err != nil {
			t.Fatal(err)
		}
		stats := &metrics.ServeStats{}
		cl := startTestCluster(t, n, Options{Stats: stats})
		got, err := submitAndWait(t, cl, 2, spec).SimResult()
		if err != nil {
			t.Fatalf("%s: %v", c.tree, err)
		}
		if !reflect.DeepEqual(got, want) || got.Rounds != c.rounds {
			t.Errorf("%s: served %+v, oracle %+v, want both to stop in round %d", c.tree, got, want, c.rounds)
		}
		// Every frame was taken for its write before the decide that carried
		// the last seat's record could reach the origin.
		if frames := stats.BatchFrames.Load(); frames != c.frames {
			t.Errorf("%s: %d frames on the links, want %d", c.tree, frames, c.frames)
		}
		if stats.TurnsInline.Load() == 0 {
			t.Errorf("%s: no engine turn ran on the goroutine that delivered its input", c.tree)
		}
		cl.Stop() // every writer has exited: the write counters are final
		if in, def, all := stats.BatchesInline.Load(), stats.BatchesDeferred.Load(), stats.Batches.Load(); in+def != all || in == 0 {
			t.Errorf("%s: %d inline + %d deferred writes, %d in all", c.tree, in, def, all)
		}
	}
}

// frameTally is a WrapConn that records the wire type of every session
// frame written to the links it wraps. Wrapped links are written by their
// flushers alone, one whole batch per Write.
type frameTally struct {
	mu    sync.Mutex
	types map[byte]int
	bad   []string
}

type tallyConn struct {
	net.Conn
	t *frameTally
}

func (c tallyConn) Write(b []byte) (int, error) {
	c.t.mu.Lock()
	for rest := b; len(rest) > 0; {
		n, k := binary.Uvarint(rest)
		if k <= 0 || n == 0 || uint64(len(rest)-k) < n {
			c.t.bad = append(c.t.bad, "a write ends inside a frame")
			break
		}
		body := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		if body[0] != transport.FrameMuxSession {
			continue // the mux hello
		}
		typ, _, err := wire.PeekSession(body[1:])
		if err != nil {
			c.t.bad = append(c.t.bad, err.Error())
			break
		}
		c.t.types[typ]++
	}
	c.t.mu.Unlock()
	return c.Conn.Write(b)
}

// TestSessionRoundIsTheOnlyDataFrame: served sessions, lock-step and async,
// decide with nothing but SessionRound frames between their opens and
// decides, and a daemon handed one of the retired frames fails the link
// rather than route it.
func TestSessionRoundIsTheOnlyDataFrame(t *testing.T) {
	for _, async := range []bool{false, true} {
		tally := &frameTally{types: make(map[byte]int)}
		opts := Options{}
		if async {
			opts = asyncOptions()
		}
		opts.WrapConn = func(_, _ sim.PartyID, conn net.Conn) net.Conn { return tallyConn{conn, tally} }
		c := startTestCluster(t, 4, opts)
		resp := submitAndWait(t, c, 1, Spec{Tree: "spider:3:3", T: 1, TTL: time.Minute})
		if !resp.Decided() {
			t.Fatalf("async=%v: state %s (%s)", async, resp.State, resp.Err)
		}
		c.Stop()
		tally.mu.Lock()
		for _, msg := range tally.bad {
			t.Errorf("async=%v: %s", async, msg)
		}
		for typ, k := range tally.types {
			switch typ {
			case wire.TypeSessionRound, wire.TypeSessionOpen, wire.TypeSessionDecide:
			default:
				t.Errorf("async=%v: %d frames of type %#x on the links", async, k, typ)
			}
		}
		if tally.types[wire.TypeSessionRound] == 0 || tally.types[wire.TypeSessionOpen] != 3 || tally.types[wire.TypeSessionDecide] != 3 {
			t.Errorf("async=%v: frames by type %v, want rounds, 3 opens and 3 decides", async, tally.types)
		}
		tally.mu.Unlock()
	}

	m := newManager(&Daemon{opts: Options{}.withDefaults()})
	defer m.stop()
	for _, retired := range []any{
		wire.SessionEOR{SID: 1, Round: 1},
		wire.SessionMsg{SID: 1, Round: 1, Payload: wire.AsyncValue{Phase: 1, Kind: 1, Iter: 1}},
	} {
		body, err := wire.Encode(retired)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.handleRaw(2, body); err == nil || !strings.Contains(err.Error(), "retired frame type") {
			t.Errorf("handleRaw(%T) = %v, want the frame refused", retired, err)
		}
	}
}

// TestSessionRoundPerPeerFrames: a round that is not all broadcasts goes out
// as one frame per peer, each holding what that peer is sent — the
// broadcasts and its own unicasts, in emission order — and the seat's mark;
// the next round's frames hold nothing of this one's. (TreeAA only
// broadcasts, so no served session walks this path.)
func TestSessionRoundPerPeerFrames(t *testing.T) {
	const self, n = 1, 4
	m := newMux(self, n, make([]string, n), 1, Options{}.withDefaults(), nil, nil, nil)
	for _, l := range m.peers {
		if l != nil {
			l.up = true // no socket: staged frames just collect
		}
	}
	fr := driver.NewFramer(self, n, 77, m.stage) // what engine.begin builds
	note := func(i int) any { return wire.AsyncValue{Phase: 1, Kind: 1, Iter: i + 1} }
	for round := 3; round <= 4; round++ {
		for i, to := range []sim.PartyID{sim.Broadcast, 0, self, 3, sim.Broadcast, 0} {
			if err := fr.Emit(round, to, note(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fr.EndRound(round, round == 4); err != nil {
			t.Fatal(err)
		}
		for peer, want := range map[sim.PartyID][]int{0: {0, 1, 4, 5}, 2: {0, 4}, 3: {0, 3, 4}} {
			l := m.peers[peer]
			frame, frames := l.takeLocked()
			if frames != 1 {
				t.Fatalf("round %d: %d frames staged for peer %d, want 1", round, frames, peer)
			}
			k, used := binary.Uvarint(frame)
			if int(k) != len(frame)-used || frame[used] != transport.FrameMuxSession {
				t.Fatalf("round %d peer %d: bad envelope %x", round, peer, frame)
			}
			got, err := wire.Decode(frame[used+1:])
			if err != nil {
				t.Fatal(err)
			}
			wantFrame := wire.SessionRound{SID: 77, Round: round, Done: round == 4}
			for _, i := range want {
				wantFrame.Payloads = append(wantFrame.Payloads, note(i))
			}
			if !reflect.DeepEqual(got, wantFrame) {
				t.Errorf("round %d to peer %d:\n got %+v\nwant %+v", round, peer, got, wantFrame)
			}
		}
	}
}

// resetSpaceCache empties the process's cache, so the next parse of any spec
// is a fresh one.
func resetSpaceCache() {
	spaces.mu.Lock()
	spaces.byID, spaces.next = nil, 0
	spaces.mu.Unlock()
}

// TestSpaceCacheMatchesFreshParse: a session on a cached space computes
// what it computes on a freshly parsed one, over tree and graph spaces; the
// cache holds no more than its ring; and a spec that names a file is read
// again for every session.
func TestSpaceCacheMatchesFreshParse(t *testing.T) {
	const n = 4
	for _, spec := range []Spec{
		{Tree: "spider:3:3", T: 1},
		{Tree: "random:24", Seed: 11, T: 1},
		{Tree: "graph:cliquechain:3:4", T: 1},
		{Tree: "graph:cycle:9"},
	} {
		resetSpaceCache()
		fresh, err := Oracle(n, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Tree, err)
		}
		ps1, _ := parseSpec(spec, n, time.Minute)
		cached, err := Oracle(n, spec)
		if err != nil {
			t.Fatal(err)
		}
		ps2, _ := parseSpec(spec, n, time.Minute)
		if ps1.space != ps2.space {
			t.Errorf("%s: two parses built two spaces", spec.Tree)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Errorf("%s: cached space diverges\n fresh %+v\ncached %+v", spec.Tree, fresh, cached)
		}
	}
	if a, _ := parseSpec(Spec{Tree: "random:24", Seed: 1}, n, time.Minute); a.space != nil {
		if b, _ := parseSpec(Spec{Tree: "random:24", Seed: 2}, n, time.Minute); a.space == b.space {
			t.Error("two seeds of one spec share a space")
		}
	}

	// A stream of never-repeating specs cannot grow it.
	resetSpaceCache()
	hot, _ := parseSpec(Spec{Tree: "spider:3:3"}, n, time.Minute)
	for seed := int64(1); seed <= 3*spaceCacheSize; seed++ {
		if _, err := parseSpec(Spec{Tree: "random:8", Seed: seed}, n, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	spaces.mu.Lock()
	size := len(spaces.byID)
	spaces.mu.Unlock()
	if size != spaceCacheSize {
		t.Errorf("cache holds %d spaces, want its ring of %d", size, spaceCacheSize)
	}
	if again, err := parseSpec(Spec{Tree: "spider:3:3"}, n, time.Minute); err != nil || again.space == hot.space {
		t.Errorf("the evicted space was not parsed again (%v)", err)
	}
	if _, err := parseSpec(Spec{Tree: "nosuchshape:3"}, n, time.Minute); err == nil {
		t.Error("a bad spec parsed")
	}

	// "@file" specs bypass the cache: the file edited between two sessions
	// is the second session's space.
	file := filepath.Join(t.TempDir(), "space.txt")
	for _, prefix := range []string{"", "graph:"} {
		var sizes []int
		for _, edges := range []string{"a - b\nb - c\nc - d\n", "a - b\nb - c\nc - d\nd - e\ne - f\n"} {
			if err := os.WriteFile(file, []byte(edges), 0o644); err != nil {
				t.Fatal(err)
			}
			ps, err := parseSpec(Spec{Tree: prefix + "@" + file}, n, time.Minute)
			if err != nil {
				t.Fatalf("%s@file: %v", prefix, err)
			}
			sizes = append(sizes, ps.space.NumVertices())
		}
		if !reflect.DeepEqual(sizes, []int{4, 6}) {
			t.Errorf("%s@file parsed to %v vertices across the edit, want [4 6]", prefix, sizes)
		}
	}
}
