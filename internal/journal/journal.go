// Package journal is the serving layer's write-ahead session journal:
// append-only segment files of CRC-framed wire records that let a restarted
// daemon rebuild its session table — every acked-decided outcome included
// (internal/session owns the replay semantics; this package owns
// durability).
//
// # On-disk format
//
// A journal is a directory of segment files named seg-%08d.waj, appended in
// sequence order. Each segment is a concatenation of records:
//
//	uvarint(len(body)) | crc32c(body, 4 bytes big-endian) | body
//
// where body is one canonical wire payload (wire.JournalOpen,
// wire.JournalFrame or wire.JournalSeal). Segments rotate at SegmentBytes;
// rotation syncs the finished segment, so only the newest segment can ever
// hold a torn tail. Segments are preallocated to SegmentBytes at creation
// (best-effort), so a segment abandoned by a crash may carry a tail of
// zero bytes; replay treats a zero length prefix as end-of-data.
//
// # Fsync policy
//
// Appends never touch the filesystem: they encode into an in-memory batch
// buffer under the writer lock (pure memcpy — the session hot path is
// never stalled behind storage latency). A background syncer swaps the
// batch out and does all file I/O — write, fsync, segment rotation — with
// the lock released, one pass per SyncInterval plus an immediate pass per
// Commit (group commit, the same batching philosophy as the serving mux's
// flush tick). Append is fire-and-forget (nothing acks on admissions or
// non-origin seals); Commit returns a ticket channel that
// closes once the record — and, because the log is ordered, everything
// appended before it — is durable. The serving layer acks a decided
// session to its client only after the seal's ticket resolves, so
// "decided" survives kill -9 by construction.
//
// Segments are preallocated (fallocate) and synced with fdatasync where
// the platform has them: with the file size fixed up front, a group-commit
// sync flushes data without journalling an inode update, which measurably
// cuts the per-batch fsync cost on a busy filesystem.
//
// # Recovery semantics
//
// Replay streams every record in order. A broken record (bad CRC, bad
// framing, truncation) in the *last* segment with no valid record after it
// is a torn tail — the expected shape of a crash mid-append — and replay
// stops cleanly, counting it in Stats.ReplaySkips; the Open that follows
// cuts it off before starting the next segment. A broken record followed by
// a valid one, or any broken record in a non-final segment, is real
// corruption and replay fails with ErrCorrupt: recovering past silently
// dropped records would violate the durability contract.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treeaa/internal/wire"
)

// segPrefix/segSuffix name segment files: seg-00000001.waj, ordered by the
// zero-padded sequence number.
const (
	segPrefix = "seg-"
	segSuffix = ".waj"
)

// maxRecordBytes bounds one record body; it matches the wire codec's own
// payload ceiling with headroom for the record framing.
const maxRecordBytes = 1 << 21

// castagnoli is the CRC-32C table every record checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats carries the journal's counters and gauges for the observability
// endpoint. All fields are atomics; one Stats may be shared freely.
type Stats struct {
	Appends      atomic.Int64 // records appended since open
	AppendBytes  atomic.Int64 // record bytes appended (framing included)
	Syncs        atomic.Int64 // fsync batches completed
	SyncErrors   atomic.Int64
	LastSyncNS   atomic.Int64 // duration of the most recent fsync batch
	Depth        atomic.Int64 // records appended but not yet durable
	Segment      atomic.Int64 // current segment sequence number
	Replayed     atomic.Int64 // records replayed at the last recovery
	ReplaySkips  atomic.Int64 // torn-tail records dropped at recovery (0 or 1 per segment)
	ReplayedSegs atomic.Int64 // segments scanned at the last recovery
}

// Options tunes a Writer. The zero value of every field gets a default.
type Options struct {
	// Dir is the journal directory; created if missing. Required.
	Dir string
	// SegmentBytes rotates segments once the current one reaches this size.
	// Default 8 MiB.
	SegmentBytes int
	// SyncInterval is the background sync cadence: the longest a
	// fire-and-forget Append waits for durability. Commits do not wait for
	// it — each Commit kicks an immediate group-commit pass — so this only
	// bounds the loss window for records nothing is acking (admissions,
	// non-origin seals), and a generous default keeps the fsync rate paid
	// for them near zero. Default 100ms.
	SyncInterval time.Duration
	// Stats receives the writer's counters; nil allocates a private one.
	Stats *Stats
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.Stats == nil {
		o.Stats = &Stats{}
	}
	return o
}

// Writer appends records to the newest segment of a journal directory. It
// never writes into pre-existing segments: Open always starts a fresh one,
// so a torn tail left by a crash is sealed off rather than appended past.
//
// Concurrency split: mu guards the in-memory batch (buf/ends/tickets/err)
// and is held only for memory work; syncMu serializes sync passes, which
// own the file handle and do every syscall with mu released.
type Writer struct {
	opts  Options
	stats *Stats

	mu      sync.Mutex
	buf     []byte          // encoded records awaiting the next sync pass
	ends    []int           // cumulative record end offsets into buf
	scratch []byte          // encode workspace, reused across appends
	tickets []chan struct{} // closed by the pass that makes their records durable
	err     error           // sticky: first write/sync failure fails every later call

	// syncMu serializes sync passes (the pacer, explicit Sync, Close,
	// Abandon) and protects the file-side fields below.
	syncMu   sync.Mutex
	f        *os.File
	seq      int64
	segBytes int
	spare    []byte // recycled batch buffer
	spareEnd []int

	kick     chan struct{} // Commit nudges the pacer for prompt group commit
	quit     chan struct{}
	done     chan struct{}
	quitOnce sync.Once
}

// Open creates (or reuses) the journal directory and starts a fresh segment
// after any existing ones. Call Replay first: Open's new segment makes the
// prior tail immutable. A torn tail on the newest existing segment is cut
// off here — that segment is about to become non-final, where a broken
// record reads as corruption on every later replay — and damage Replay would
// refuse is refused here too.
func Open(opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	var seq int64 = 1
	if len(segs) > 0 {
		newest := segs[len(segs)-1]
		seq = newest.seq + 1
		torn, err := replaySegment(newest, true, &Stats{}, func(any) error { return nil })
		if err != nil {
			return nil, err
		}
		if torn >= 0 {
			if err := os.Truncate(newest.path, torn); err != nil {
				return nil, fmt.Errorf("journal: cutting torn tail: %w", err)
			}
		}
	}
	w := &Writer{
		opts:  opts,
		stats: opts.Stats,
		seq:   seq,
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	w.stats.Segment.Store(seq)
	go w.syncLoop()
	return w, nil
}

func segPath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// openSegment starts segment w.seq. Called from Open and (under syncMu)
// from rotation.
func (w *Writer) openSegment() error {
	f, err := os.OpenFile(segPath(w.opts.Dir, w.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	preallocate(f, w.opts.SegmentBytes)
	w.f = f
	w.segBytes = 0
	return nil
}

// Append journals one record, buffered: it is durable after the next sync
// pass (at most SyncInterval later). Use Commit for records whose
// durability must be observed.
func (w *Writer) Append(payload any) error {
	w.mu.Lock()
	err := w.appendLocked(payload)
	w.mu.Unlock()
	return err
}

// Commit journals one record and returns a ticket channel that closes once
// the record is on stable storage (along with everything appended before
// it, by log order). On a write error the ticket still closes — callers
// waiting on durability must check Err for the verdict.
func (w *Writer) Commit(payload any) (<-chan struct{}, error) {
	w.mu.Lock()
	if err := w.appendLocked(payload); err != nil {
		w.mu.Unlock()
		closed := make(chan struct{})
		close(closed)
		return closed, err
	}
	ticket := make(chan struct{})
	w.tickets = append(w.tickets, ticket)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return ticket, nil
}

func (w *Writer) appendLocked(payload any) error {
	if w.err != nil {
		return w.err
	}
	sz, err := wire.EncodedSize(payload)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if sz > maxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds limit", sz)
	}
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, uint64(sz))
	crcAt := len(b)
	b = append(b, 0, 0, 0, 0)
	bodyAt := len(b)
	b, err = wire.Append(b, payload)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	binary.BigEndian.PutUint32(b[crcAt:], crc32.Checksum(b[bodyAt:], castagnoli))
	w.scratch = b
	w.buf = append(w.buf, b...)
	w.ends = append(w.ends, len(w.buf))
	w.stats.Appends.Add(1)
	w.stats.AppendBytes.Add(int64(len(b)))
	w.stats.Depth.Add(1)
	return nil
}

// setErrLocked records the first failure; later calls keep the original.
func (w *Writer) setErrLocked(err error) error {
	if w.err == nil {
		w.err = fmt.Errorf("journal: %w", err)
	}
	return w.err
}

// Sync runs one group-commit pass: swap the batch out, write it, fsync,
// release every outstanding Commit ticket.
func (w *Writer) Sync() error {
	return w.sync()
}

// sync is one group-commit pass. Under w.mu it only swaps the in-memory
// batch out; every syscall — write, fsync, rotation — runs with w.mu
// released, so appends on the inbound-frame hot path proceed concurrently.
// syncMu keeps passes ordered, so the file handle has a single owner.
func (w *Writer) sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()

	w.mu.Lock()
	tickets := w.tickets
	w.tickets = nil
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		for _, t := range tickets {
			close(t)
		}
		return err
	}
	batch, ends := w.buf, w.ends
	w.buf, w.ends = w.spare[:0], w.spareEnd[:0]
	w.mu.Unlock()

	start := time.Now()
	err := w.writeBatch(batch, ends)
	if err == nil && (len(batch) > 0 || len(tickets) > 0) {
		err = datasync(w.f)
	}
	w.spare, w.spareEnd = batch[:0], ends[:0]
	if err != nil {
		w.stats.SyncErrors.Add(1)
		w.mu.Lock()
		err = w.setErrLocked(err)
		w.mu.Unlock()
	} else {
		if len(batch) > 0 || len(tickets) > 0 {
			w.stats.Syncs.Add(1)
			w.stats.LastSyncNS.Store(time.Since(start).Nanoseconds())
		}
		w.stats.Depth.Add(int64(-len(ends)))
	}
	// Tickets close last: a holder that wakes on one finds the pass
	// already in Stats and its verdict already in Err.
	for _, t := range tickets {
		close(t)
	}
	return err
}

// writeBatch appends the batch to the current segment, rotating at record
// boundaries so no record ever straddles two segments (each segment must
// replay independently). A finished segment is fsynced before it is closed,
// preserving the invariant that only the newest segment can hold a torn
// tail. Caller holds syncMu.
func (w *Writer) writeBatch(batch []byte, ends []int) error {
	start := 0
	for i := 0; i < len(ends); {
		// Take records while they fit in the current segment — but always
		// at least one, so an oversized record overshoots rather than
		// wedging.
		end := ends[i]
		i++
		for i < len(ends) && w.segBytes+(ends[i]-start) <= w.opts.SegmentBytes {
			end = ends[i]
			i++
		}
		if _, err := w.f.Write(batch[start:end]); err != nil {
			return err
		}
		w.segBytes += end - start
		start = end
		if w.segBytes >= w.opts.SegmentBytes {
			if err := w.rotate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// rotate seals the current segment (fsync before close, so finished
// segments can never hold a torn tail) and opens the next one. Caller
// holds syncMu.
func (w *Writer) rotate() error {
	if err := datasync(w.f); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.seq++
	if err := w.openSegment(); err != nil {
		return err
	}
	w.stats.Segment.Store(w.seq)
	return nil
}

// syncLoop is the group-commit pacer: one pass per SyncInterval while
// there is anything to make durable, plus an immediate pass whenever a
// Commit arrives — commits landing during an in-flight pass batch into the
// next one (classic group commit).
func (w *Writer) syncLoop() {
	defer close(w.done)
	ticker := time.NewTicker(w.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-ticker.C:
			w.mu.Lock()
			dirty := len(w.buf) > 0 || len(w.tickets) > 0
			w.mu.Unlock()
			if !dirty {
				continue
			}
		case <-w.kick:
		}
		w.sync() // sticky error; ticket holders check Err
	}
}

// Err reports the writer's sticky error (nil while healthy). Commit ticket
// holders consult it after their ticket closes.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close performs a final sync and closes the segment.
func (w *Writer) Close() error {
	w.quitOnce.Do(func() { close(w.quit) })
	<-w.done
	serr := w.sync()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.f != nil {
		// Trim the preallocated tail: a closed segment ends exactly at its
		// last record. Best-effort — replay tolerates padding regardless.
		_ = w.f.Truncate(int64(w.segBytes))
		if cerr := w.f.Close(); cerr != nil && serr == nil {
			serr = fmt.Errorf("journal: %w", cerr)
		}
		w.f = nil
	}
	return serr
}

// Abandon drops the writer without flushing: buffered-but-unsynced records
// are lost, exactly as a kill -9 would lose them. The chaos harness uses
// this to simulate process death in-process; bytes already handed to the
// OS by a sync pass survive (a process kill loses only user-space
// buffers), and so does everything fsynced.
func (w *Writer) Abandon() {
	w.quitOnce.Do(func() { close(w.quit) })
	<-w.done
	w.mu.Lock()
	if w.err == nil {
		w.err = errors.New("journal: abandoned")
	}
	w.buf, w.ends = nil, nil // the unflushed tail dies here
	tickets := w.tickets
	w.tickets = nil
	w.mu.Unlock()
	for _, t := range tickets {
		close(t)
	}
	w.syncMu.Lock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.syncMu.Unlock()
}

// segment is one discovered segment file.
type segment struct {
	seq  int64
	path string
}

// segments lists a journal directory's segment files in sequence order.
func segments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) <= len(segPrefix)+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
			continue
		}
		var seq int64
		if _, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%d", &seq); err != nil || seq <= 0 {
			continue
		}
		segs = append(segs, segment{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}
