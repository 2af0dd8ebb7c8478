package chaos

import (
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"treeaa/internal/metrics"
)

// eorFrame hand-builds a minimal round frame, an open mark and no messages
// (the layout is pinned by internal/wire's and internal/transport's own
// tests; chaos only needs *a* valid round-carrying frame to steer its
// windows).
func eorFrame(round byte) []byte {
	// len=7 | session envelope | wire version | SessionRound | sid | round | flags | k
	return []byte{7, 0x06, 0x01, 0x18, 0x00, round, 0x00, 0x00}
}

// helloFrame hand-builds a minimal control frame (a hello's tag; the chaos
// layer classifies, it does not parse).
func helloFrame() []byte {
	return []byte{1, 0x07} // len=1 | hello
}

// drainedPipe returns a pipe whose far end is continuously drained, so
// writes through the chaos wrapper never block on the reader.
func drainedPipe(t *testing.T) net.Conn {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go io.Copy(io.Discard, c2)
	return c1
}

func TestConnLatencyAndStallCounters(t *testing.T) {
	stats := &metrics.ChaosStats{}
	in := NewInjector(mustPlan("lat(base=100us,jitter=100us)+stall(from=0,rounds=1,dur=100us)", 2), 1, stats)
	conn := in.WrapConn(0, 1, drainedPipe(t))

	for _, f := range [][]byte{helloFrame(), eorFrame(1), eorFrame(2)} {
		if _, err := conn.Write(f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if got := stats.Delays.Load(); got != 2 {
		t.Errorf("Delays = %d, want 2 (hello is exempt)", got)
	}
	if got := stats.Stalls.Load(); got != 1 {
		t.Errorf("Stalls = %d, want 1 (only round 1 is in the window)", got)
	}
}

func TestConnDropFiresOnce(t *testing.T) {
	stats := &metrics.ChaosStats{}
	in := NewInjector(mustPlan("drop(from=0,to=1,round=2)", 2), 1, stats)

	conn := in.WrapConn(0, 1, drainedPipe(t))
	if _, err := conn.Write(eorFrame(1)); err != nil {
		t.Fatalf("round 1 write: %v", err)
	}
	if _, err := conn.Write(eorFrame(2)); err == nil {
		t.Fatal("round 2 write survived the drop clause")
	}

	// The transport's reconnect path wraps a fresh connection of the same
	// link; the clause must not fire again.
	conn = in.WrapConn(0, 1, drainedPipe(t))
	if _, err := conn.Write(eorFrame(2)); err != nil {
		t.Fatalf("round 2 write after reconnect: %v", err)
	}
	if got := stats.Drops.Load(); got != 1 {
		t.Errorf("Drops = %d, want 1", got)
	}

	// Other links are untouched.
	other := in.WrapConn(0, 2, drainedPipe(t))
	if _, err := other.Write(eorFrame(2)); err != nil {
		t.Fatalf("0→2 write: %v", err)
	}
}

func TestConnPartitionHolds(t *testing.T) {
	stats := &metrics.ChaosStats{}
	in := NewInjector(mustPlan("part(a=0,b=1,rounds=1.2,heal=60ms)", 2), 1, stats)

	cut := in.WrapConn(0, 1, drainedPipe(t))
	start := time.Now()
	if _, err := cut.Write(eorFrame(1)); err != nil {
		t.Fatal(err)
	}
	if held := time.Since(start); held < 40*time.Millisecond {
		t.Errorf("cross-cut frame held %v, want ≈ 60ms", held)
	}
	if got := stats.Partitions.Load(); got != 1 {
		t.Errorf("Partitions = %d, want 1", got)
	}

	// After the heal deadline the cut is open.
	start = time.Now()
	if _, err := cut.Write(eorFrame(2)); err != nil {
		t.Fatal(err)
	}
	if held := time.Since(start); held > 20*time.Millisecond {
		t.Errorf("post-heal frame held %v, want immediate", held)
	}

	// A same-side link never crossed the cut.
	uncut := in.WrapConn(2, 3, drainedPipe(t))
	start = time.Now()
	if _, err := uncut.Write(eorFrame(1)); err != nil {
		t.Fatal(err)
	}
	if held := time.Since(start); held > 20*time.Millisecond {
		t.Errorf("same-side frame held %v, want immediate", held)
	}
}

// TestConnDropWalksBatch: a link writes batches, and a drop clause keyed on
// round 3 fires on round 3's frame even when round 2's leads the write —
// exactly once, closing the connection before its frame, with the write
// reporting the bytes that went out ahead of it.
func TestConnDropWalksBatch(t *testing.T) {
	stats := &metrics.ChaosStats{}
	in := NewInjector(mustPlan("drop(from=0,to=1,round=3)", 2), 1, stats)
	conn := in.WrapConn(0, 1, drainedPipe(t))
	batch := append(eorFrame(2), eorFrame(3)...)
	n, err := conn.Write(batch)
	if err == nil || n != len(eorFrame(2)) {
		t.Fatalf("batch of rounds 2 and 3 under drop@r3: wrote %d bytes, err %v; want round 2's %d and an error",
			n, err, len(eorFrame(2)))
	}
	conn = in.WrapConn(0, 1, drainedPipe(t))
	if _, err := conn.Write(batch); err != nil {
		t.Fatalf("the batch again, over the replacement: %v", err)
	}
	if got := stats.Drops.Load(); got != 1 {
		t.Errorf("Drops = %d, want 1", got)
	}
}

// TestConnLatencyPerFrame: over a batched link every frame sleeps its own
// latency draw — the sequence Plan.Schedule renders for the link — and a
// control frame inside the batch draws nothing.
func TestConnLatencyPerFrame(t *testing.T) {
	const spec, seed, frames = "lat(base=1ms,jitter=1ms)", 7, 12
	plan := mustPlan(spec, 2)
	in := NewInjector(plan, seed, nil)
	var slept []string
	in.sleep = func(d time.Duration) { slept = append(slept, d.String()) }
	var batch []byte
	for r := 1; r <= frames; r++ {
		batch = append(batch, eorFrame(byte(r))...)
		if r == frames/2 {
			batch = append(batch, helloFrame()...)
		}
	}
	if _, err := in.WrapConn(0, 1, drainedPipe(t)).Write(batch); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(plan.Schedule(seed, 2, frames), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "link 0->1: "); ok {
			for _, d := range strings.Fields(rest) {
				if d != "0s" { // a zero draw sleeps nothing
					want = append(want, d)
				}
			}
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(slept, want) {
		t.Errorf("slept %v over a batch of %d frames, want the schedule's %v", slept, frames, want)
	}
}
