package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"treeaa/internal/wire"
)

// ErrCorrupt reports journal damage that cannot be explained by a crash
// mid-append: a broken record that is *followed* by a valid one, or any
// broken record outside the final segment. Recovery must not continue past
// it — later records could depend on the lost one.
var ErrCorrupt = errors.New("journal: corrupt record")

// errPadding marks a zero length prefix: the reader has walked off the end
// of the written data into a preallocated segment's zero tail. Never a real
// record (every wire payload encodes to at least one byte).
var errPadding = errors.New("zero length prefix")

// Replay streams every journaled record, in segment then append order,
// through fn. Payloads are wire.JournalOpen, wire.JournalFrame or
// wire.JournalSeal. A torn tail (crash mid-append) on the final segment is
// tolerated and counted in stats; any other damage returns ErrCorrupt
// (wrapped with position detail). A missing directory replays zero records.
// If fn returns an error, replay stops and returns it.
func Replay(dir string, stats *Stats, fn func(payload any) error) error {
	if stats == nil {
		stats = &Stats{}
	}
	stats.Replayed.Store(0)
	stats.ReplaySkips.Store(0)
	stats.ReplayedSegs.Store(0)
	segs, err := segments(dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		if _, err := replaySegment(seg, last, stats, fn); err != nil {
			return err
		}
		stats.ReplayedSegs.Add(1)
	}
	return nil
}

// replaySegment decodes one segment. A broken record is tolerated only as a
// torn tail: on the final segment, with no fully-valid record after it. torn
// is then the offset the tail starts at — the end of the last valid record —
// and -1 otherwise.
func replaySegment(seg segment, last bool, stats *Stats, fn func(payload any) error) (torn int64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return -1, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var body []byte
	good := int64(0) // end offset of the last valid record
	var lenBuf [binary.MaxVarintLen64]byte
	for rec := 0; ; rec++ {
		payload, resumable, err := readRecord(br, &body)
		if err == io.EOF {
			return -1, nil
		}
		if err != nil {
			if err == errPadding {
				// Preallocated-tail padding: clean end of any segment's data,
				// unless something follows the zero run — a valid record there
				// means a record was zeroed out under us.
				nonzero, serr := skipZeros(br)
				if serr != nil {
					return -1, fmt.Errorf("journal: %s: %v", seg.path, serr)
				}
				if !nonzero {
					return -1, nil
				}
				if !last || validRecordFollows(br, &body) {
					return -1, fmt.Errorf("%w: %s record %d: data follows zero padding",
						ErrCorrupt, seg.path, rec)
				}
				stats.ReplaySkips.Add(1)
				return good, nil
			}
			if !last {
				return -1, fmt.Errorf("%w: %s record %d: %v", ErrCorrupt, seg.path, rec, err)
			}
			// Final segment: a crash mid-append explains a broken record only
			// if nothing valid was appended after it. When the stream position
			// past the broken record is still well-defined, scan forward — a
			// later valid record proves this is damage, not a torn tail.
			if resumable && validRecordFollows(br, &body) {
				return -1, fmt.Errorf("%w: %s record %d (valid records follow): %v",
					ErrCorrupt, seg.path, rec, err)
			}
			stats.ReplaySkips.Add(1)
			return good, nil
		}
		if err := fn(payload); err != nil {
			return -1, err
		}
		stats.Replayed.Add(1)
		good += int64(binary.PutUvarint(lenBuf[:], uint64(len(body)))) + 4 + int64(len(body))
	}
}

// skipZeros discards a run of zero bytes and reports whether a nonzero
// byte follows it (left unconsumed in the stream).
func skipZeros(br *bufio.Reader) (nonzero bool, err error) {
	for {
		buf, perr := br.Peek(4096)
		i := 0
		for i < len(buf) && buf[i] == 0 {
			i++
		}
		br.Discard(i)
		if i < len(buf) {
			return true, nil
		}
		if perr != nil {
			if perr == io.EOF {
				return false, nil
			}
			return false, perr
		}
	}
}

// validRecordFollows reports whether any fully-valid record remains in the
// stream after a broken-but-fully-read one. Padding runs are stepped over;
// only a record that checks out end to end counts.
func validRecordFollows(br *bufio.Reader, body *[]byte) bool {
	for {
		_, resumable, err := readRecord(br, body)
		if err == nil {
			return true
		}
		if !resumable {
			return false
		}
	}
}

// readRecord reads one `uvarint(len) | crc32c | body` record. io.EOF means
// a clean segment end; every other error means the record is broken. The
// resumable result reports whether the full record was consumed despite the
// error, leaving the stream positioned at the next record — false for
// truncation and unparseable framing, where no next position exists. A
// valid record leaves *body holding exactly its bytes.
func readRecord(br *bufio.Reader, body *[]byte) (payload any, resumable bool, err error) {
	sz, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, false, io.EOF
		}
		return nil, false, fmt.Errorf("length prefix: %v", err)
	}
	if sz == 0 {
		return nil, true, errPadding
	}
	if sz > maxRecordBytes {
		return nil, false, fmt.Errorf("record length %d out of range", sz)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, false, fmt.Errorf("checksum: %v", err)
	}
	if cap(*body) < int(sz) {
		*body = make([]byte, sz)
	}
	b := (*body)[:sz]
	*body = b
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, false, fmt.Errorf("body: %v", err)
	}
	if got, want := crc32.Checksum(b, castagnoli), binary.BigEndian.Uint32(crcBuf[:]); got != want {
		return nil, true, fmt.Errorf("checksum mismatch: got %08x want %08x", got, want)
	}
	// wire.Decode copies any retained bytes (JournalFrame.Body), so reusing
	// the body buffer across records is safe.
	payload, err = wire.Decode(b)
	if err != nil {
		return nil, true, fmt.Errorf("decode: %v", err)
	}
	switch payload.(type) {
	case wire.JournalOpen, wire.JournalFrame, wire.JournalSeal:
		return payload, true, nil
	default:
		return nil, true, fmt.Errorf("unexpected payload %T in journal", payload)
	}
}
