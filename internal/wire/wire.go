// Package wire is the deterministic, versioned binary codec for every
// payload the synchronous protocols put on the network: the gradecast
// send/echo/vote messages (which carry RealAA values and suspicion masks,
// PathsFinder list indices and TreeAA projection positions) and the crash-AA
// value broadcasts, plus the frames of the session service, its client API,
// journal and overlay. The internal/transport TCP layer frames
// these bodies onto sockets; the in-process engine never encodes (payloads
// cross goroutines as Go values) but charges exactly len(Encode(p)) bytes
// per message because the sim.Sizer of every payload a round charges — the
// leaves and SessionRound — mirrors this codec; TestSizerMatchesEncoding
// pins that equality. The other frames (client, journal, session control,
// overlay) are never charged, so they have no Sizer: their length is their
// encoding. The gradecast messages are pointer-shaped: Encode takes only
// *SendMsg, *EchoMsg and *VoteMsg (a value form is an unknown payload) and
// Decode returns them.
//
// # Format
//
// Every body is
//
//	version(1) | type(1) | fields...
//
// with field encodings chosen so that encoding is *canonical* (each value
// has exactly one accepted byte representation — Decode rejects everything
// else, and FuzzDecode asserts Encode(Decode(b)) == b):
//
//   - uvarint: minimal-length LEB128 (non-minimal forms are rejected);
//   - string: uvarint length followed by the raw bytes;
//   - float64: IEEE-754 bits, big-endian (bit patterns, including NaN
//     payloads, survive round trips untouched);
//   - party/vertex ids: fixed big-endian u32 (ids are validated to
//     [0, 2^31) so they fit an int everywhere);
//   - flags: one byte, bit 0 the flag, every other bit clear.
//
// Three field groups recur across types. Each has one append function and
// one read function, and every type that carries the group uses them:
//
//   - the id list (appendIDs, readIDs): uvarint count, then entries of a
//     fixed width whose leading u32 ids are strictly ascending — the
//     gradecast vectors (id | value(f64)), AsyncReport's senders (id) and
//     both output lists (party | vertex);
//   - the spec group (appendSpec, Reader.spec): tree spec | seed(8,
//     big-endian two's complement) | uvarint(t) | input spec |
//     uvarint(ttl ms) — SessionOpen, JournalOpen and ClientSubmit;
//   - the result tail (appendResult, Reader.result): uvarint(rounds) |
//     uvarint(msgs) | uvarint(bytes) | output list — ClientOutcome and a
//     JournalSeal with a result.
//
// The fixed-width list entries keep sim.Sizer implementations O(1): a vector
// message's size is arithmetic on len(Tag) and len(Vals), never a map walk,
// so exact byte accounting costs the hot simulation path nothing.
//
// Every decoder reads through one cursor, Reader (reader.go): it reads each
// field kind above, keeps the first error — always wrapping ErrMalformed —
// and reads nothing after it, so a decoder reads all its fields and checks
// one error at its end. internal/transport and internal/overlay read their
// own frame headers through it too.
//
// The asynchronous mode's RBC and witness-report payloads (async.go in this
// package, types 0x16–0x17) ride the same codec: they are the payloads
// internal/async's Pipeline speaks in process, so nothing converts at the
// transport boundary.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"treeaa/internal/crashaa"
	"treeaa/internal/gradecast"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// Version is the wire-format version, the first byte of every body. Bump it
// on any format change and regenerate the golden frames (testdata/wire) so
// the drift is reviewed like a protocol change.
const Version = 1

// Type tags, the second byte of every body. 0x04, 0x06 and 0x07 are
// retired: Decode rejects them, and no new type takes them.
const (
	TypeGradecastSend byte = 0x01
	TypeGradecastEcho byte = 0x02
	TypeGradecastVote byte = 0x03
	TypeCrashValue    byte = 0x05
)

// Limits. Decode validates counts against the remaining buffer before
// allocating, so a malformed frame can never force a large allocation, but
// explicit caps also keep encoded frames bounded.
const (
	// MaxIDValue bounds encoded party and vertex ids: they must fit an
	// int32 so decoding is portable.
	MaxIDValue = math.MaxInt32
	// maxLen bounds every length prefix (strings, lists, signatures).
	maxLen = 1 << 20
)

// ErrUnknownPayload reports an Encode or Append call with a payload type the
// codec does not know, and a session frame carrying a payload that is not a
// leaf.
var ErrUnknownPayload = errors.New("wire: unknown payload type")

// ErrMalformed reports a Decode rejection; the wrapped detail says why.
var ErrMalformed = errors.New("wire: malformed frame")

// Encode returns the canonical encoding of payload, which must be one of
// the protocol payload types listed in the package comment. A leaf is
// encoded into a buffer of its exact size and an overlay envelope into one
// bounded by its body or bitmaps, so each costs one allocation; the other
// frames grow theirs as they append.
func Encode(payload any) ([]byte, error) {
	var c int
	switch m := payload.(type) {
	case RelayMsg:
		c = relayHeaderMax + len(m.Body)
	case OverlayEOR:
		c = eorHeaderMax + len(m.Arrived) + len(m.Done)
	default:
		c, _ = encodedSize(payload)
	}
	return Append(make([]byte, 0, c), payload)
}

// Append appends the canonical encoding of payload to dst and returns the
// extended slice.
func Append(dst []byte, payload any) ([]byte, error) {
	switch m := payload.(type) {
	case *gradecast.SendMsg:
		return appendScalar(dst, TypeGradecastSend, m.Tag, m.Iter, m.Val)
	case *gradecast.EchoMsg:
		return appendVector(dst, TypeGradecastEcho, m.Tag, m.Iter, m.Vals)
	case *gradecast.VoteMsg:
		return appendVector(dst, TypeGradecastVote, m.Tag, m.Iter, m.Vals)
	case crashaa.ValueMsg:
		return appendScalar(dst, TypeCrashValue, m.Tag, m.Iter, m.Val)
	case SessionMsg:
		return appendSessionMsg(dst, m)
	case SessionEOR:
		return appendSessionEOR(dst, m)
	case SessionOpen:
		return appendSessionOpen(dst, m)
	case SessionAbort:
		return appendSessionAbort(dst, m)
	case SessionDecide:
		return appendSessionDecide(dst, m)
	case SessionRound:
		return AppendSessionRound(dst, m)
	case ClientSubmit:
		return appendClientSubmit(dst, m)
	case ClientWait:
		return appendClientQuery(dst, TypeClientWait, m.SID), nil
	case ClientStatus:
		return appendClientQuery(dst, TypeClientStatus, m.SID), nil
	case ClientOutcome:
		return appendClientOutcome(dst, m)
	case JournalOpen:
		return appendJournalOpen(dst, m)
	case JournalFrame:
		return appendJournalFrame(dst, m)
	case JournalSeal:
		return appendJournalSeal(dst, m)
	case RelayMsg:
		return appendRelay(dst, m)
	case OverlayEOR:
		return appendOverlayEOR(dst, m)
	case AsyncValue:
		return appendAsyncValue(dst, m)
	case AsyncReport:
		return appendAsyncReport(dst, m)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownPayload, payload)
	}
}

// encodedSize returns len(Encode(payload)) without encoding, for the
// leaves a round charges: each equals its sim.Sizer Size(). Every other
// payload is ErrUnknownPayload here, which is how a session frame refuses
// to carry one.
func encodedSize(payload any) (int, error) {
	switch payload.(type) {
	case *gradecast.SendMsg, *gradecast.EchoMsg, *gradecast.VoteMsg,
		crashaa.ValueMsg, AsyncValue, AsyncReport:
		return payload.(sim.Sizer).Size(), nil
	}
	return 0, fmt.Errorf("%w: %T", ErrUnknownPayload, payload)
}

// Decode parses one canonical body and returns the concrete payload value.
// The whole buffer must be consumed; any structural violation (unknown
// version or type, truncation, trailing bytes, non-minimal varints,
// unsorted or duplicate map keys, oversized lengths) yields an error
// wrapping ErrMalformed, never a panic.
func Decode(b []byte) (any, error) {
	r := NewReader(b)
	p := r.payload()
	if err := r.End(); err != nil {
		return nil, err
	}
	return p, nil
}

// payload reads one body's header and fields. A composite literal's reads
// run in the order they are written (Go evaluates an expression's calls left
// to right), so each literal below lists its fields in wire order.
func (r *Reader) payload() any {
	switch typ := r.header(); typ {
	case TypeGradecastSend, TypeCrashValue:
		return decodeScalar(r, typ)
	case TypeGradecastEcho, TypeGradecastVote:
		return decodeVector(r, typ)
	case TypeSessionMsg:
		return decodeSessionMsg(r)
	case TypeSessionEOR:
		return SessionEOR{SID: r.Uvarint(), Round: r.Round(), Done: r.Flag()}
	case TypeSessionOpen:
		sid, s := r.Uvarint(), r.spec()
		return SessionOpen{SID: sid, Tree: s.tree, Seed: s.seed, T: s.t, Inputs: s.inputs, TTLMillis: s.ttl}
	case TypeSessionAbort:
		return SessionAbort{SID: r.Uvarint(), Reason: r.Str()}
	case TypeSessionDecide:
		return SessionDecide{SID: r.Uvarint(), Party: sim.PartyID(r.ID()), V: tree.VertexID(r.ID()),
			DoneRound: r.Round(), TermRound: r.Round(), Msgs: r.Count(), Bytes: r.Count()}
	case TypeSessionRound:
		return decodeSessionRound(r)
	case TypeClientSubmit:
		sid, s := r.Uvarint(), r.spec()
		return ClientSubmit{SID: sid, Tree: s.tree, Seed: s.seed, T: s.t, Inputs: s.inputs,
			TTLMillis: s.ttl, Wait: r.Flag()}
	case TypeClientWait:
		return ClientWait{SID: r.Uvarint()}
	case TypeClientStatus:
		return ClientStatus{SID: r.Uvarint()}
	case TypeClientOutcome:
		return decodeClientOutcome(r)
	case TypeJournalOpen:
		sid, origin, s := r.Uvarint(), r.ID(), r.spec()
		return JournalOpen{SID: sid, Origin: sim.PartyID(origin), Tree: s.tree, Seed: s.seed, T: s.t,
			Inputs: s.inputs, TTLMillis: s.ttl, DeadlineUnixNano: int64(r.U64())}
	case TypeJournalFrame:
		return decodeJournalFrame(r)
	case TypeJournalSeal:
		return decodeJournalSeal(r)
	case TypeRelay:
		return decodeRelay(r)
	case TypeOverlayEOR:
		return decodeOverlayEOR(r)
	case TypeAsyncValue:
		phase, kind, iter, src := r.asyncHeader()
		return AsyncValue{Phase: phase, Kind: kind, Iter: iter, Src: src, Val: r.Float()}
	case TypeAsyncReport:
		phase, kind, iter, src := r.asyncHeader()
		return AsyncReport{Phase: phase, Kind: kind, Iter: iter, Src: src,
			Senders: readIDs(r, 4, func(id int) sim.PartyID { return sim.PartyID(id) })}
	default:
		r.Fail("unknown type 0x%02x", typ)
		return nil
	}
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// ---- primitive encoders (exported where the transport framing reuses them)

// AppendUvarint appends x as a canonical LEB128 varint.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// AppendU32 appends x as a fixed big-endian u32.
func AppendU32(dst []byte, x uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, x)
}

func appendID(dst []byte, id int) ([]byte, error) {
	if id < 0 || id > MaxIDValue {
		return nil, fmt.Errorf("wire: id %d out of range [0, %d]", id, MaxIDValue)
	}
	return AppendU32(dst, uint32(id)), nil
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > maxLen {
		return nil, fmt.Errorf("wire: string of %d bytes exceeds limit", len(s))
	}
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...), nil
}

// appendFlag appends a flag byte: bit 0 set when on, every other bit clear.
func appendFlag(dst []byte, on bool) []byte {
	if on {
		return append(dst, 0x01)
	}
	return append(dst, 0x00)
}

// ---- shared field groups

// appendHeader writes version | type | tag-string | iter, the prefix every
// gradecast and crash-AA payload shares.
func appendHeader(dst []byte, typ byte, tag string, iter int) ([]byte, error) {
	if iter < 0 {
		return nil, fmt.Errorf("wire: negative iteration %d", iter)
	}
	dst, err := appendString(append(dst, Version, typ), tag)
	if err != nil {
		return nil, err
	}
	return AppendUvarint(dst, uint64(iter)), nil
}

// appendIDs writes an id list — uvarint(count), then each entry as its id
// (u32) followed by what tail appends — and holds it to the list rule: ids
// strictly ascending, the one canonical order of a set. Vectors, AsyncReport
// senders and both output lists are id lists; readIDs is the decoder.
func appendIDs[E any](dst []byte, list []E, id func(E) int, tail func([]byte, E) ([]byte, error)) ([]byte, error) {
	if len(list) > maxLen {
		return nil, fmt.Errorf("wire: list of %d entries exceeds limit", len(list))
	}
	dst = AppendUvarint(dst, uint64(len(list)))
	prev := -1
	for _, e := range list {
		x := id(e)
		if x <= prev || x > MaxIDValue {
			return nil, fmt.Errorf("wire: id %d after %d: not strictly ascending in [0, %d]", x, prev, MaxIDValue)
		}
		prev = x
		if dst = AppendU32(dst, uint32(x)); tail == nil {
			continue
		}
		var err error
		if dst, err = tail(dst, e); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// readIDs reads an id list of entries size bytes long each; entry reads
// what follows an entry's id. The count is checked against the buffer before
// anything count-sized is allocated, and an empty list is nil.
func readIDs[E any](r *Reader, size uint64, entry func(id int) E) []E {
	count := r.count(size)
	if count == 0 {
		return nil
	}
	list := make([]E, 0, count)
	prev := -1
	for i := 0; i < count && r.err == nil; i++ {
		id := r.ID()
		if id <= prev {
			r.Fail("ids not strictly ascending at %d", id)
		}
		prev = id
		list = append(list, entry(id))
	}
	return list
}

// spec is the session spec group — SessionOpen, JournalOpen and
// ClientSubmit carry it:
//
//	tree spec | seed(8, big-endian two's complement) | uvarint(t) |
//	input spec | uvarint(ttl ms)
type spec struct {
	tree   string
	seed   int64
	t      int
	inputs string
	ttl    uint64
}

func appendSpec(dst []byte, s spec) ([]byte, error) {
	if s.t < 0 || s.t > math.MaxInt32 {
		return nil, fmt.Errorf("wire: session t %d out of range", s.t)
	}
	dst, err := appendString(dst, s.tree)
	if err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.seed))
	dst = AppendUvarint(dst, uint64(s.t))
	if dst, err = appendString(dst, s.inputs); err != nil {
		return nil, err
	}
	return AppendUvarint(dst, s.ttl), nil
}

func (r *Reader) spec() spec {
	return spec{tree: r.Str(), seed: int64(r.U64()), t: r.Iter(), inputs: r.Str(), ttl: r.Uvarint()}
}

// result is the result tail of a decided session — JournalSeal (when it has
// one) and ClientOutcome carry it:
//
//	uvarint(rounds) | uvarint(msgs) | uvarint(bytes) |
//	id list of (u32 party | u32 vertex)
type result struct {
	rounds, msgs, bytes int
	outputs             []OutputPair
}

func appendResult(dst []byte, res result) ([]byte, error) {
	if res.rounds < 0 || res.rounds > math.MaxInt32 {
		return nil, fmt.Errorf("wire: result rounds %d out of range", res.rounds)
	}
	if res.msgs < 0 || uint64(res.msgs) > maxCount || res.bytes < 0 || uint64(res.bytes) > maxCount {
		return nil, fmt.Errorf("wire: result counters %d/%d out of range", res.msgs, res.bytes)
	}
	dst = AppendUvarint(dst, uint64(res.rounds))
	dst = AppendUvarint(dst, uint64(res.msgs))
	dst = AppendUvarint(dst, uint64(res.bytes))
	return appendIDs(dst, res.outputs, func(p OutputPair) int { return int(p.Party) },
		func(dst []byte, p OutputPair) ([]byte, error) { return appendID(dst, int(p.V)) })
}

func (r *Reader) result() result {
	return result{rounds: r.Iter(), msgs: r.Count(), bytes: r.Count(),
		outputs: readIDs(r, 8, func(party int) OutputPair {
			return OutputPair{Party: sim.PartyID(party), V: tree.VertexID(r.ID())}
		})}
}

func appendScalar(dst []byte, typ byte, tag string, iter int, val float64) ([]byte, error) {
	dst, err := appendHeader(dst, typ, tag, iter)
	if err != nil {
		return nil, err
	}
	return appendFloat(dst, val), nil
}

func decodeScalar(r *Reader, typ byte) any {
	tag, iter, val := r.Str(), r.Iter(), r.Float()
	if typ == TypeGradecastSend {
		return &gradecast.SendMsg{Tag: tag, Iter: iter, Val: val}
	}
	return crashaa.ValueMsg{Tag: tag, Iter: iter, Val: val}
}

// appendVector writes a gradecast.Vec, which is already in canonical order:
// Vecs are sorted by construction, so encoding validates the strictly
// ascending invariant instead of sorting a map's keys per message.
func appendVector(dst []byte, typ byte, tag string, iter int, vals gradecast.Vec) ([]byte, error) {
	dst, err := appendHeader(dst, typ, tag, iter)
	if err != nil {
		return nil, err
	}
	return appendIDs(dst, vals, func(e gradecast.VecEntry) int { return int(e.ID) },
		func(dst []byte, e gradecast.VecEntry) ([]byte, error) { return appendFloat(dst, e.Val), nil })
}

// decodeVector reads the entries into one exact-size flat Vec: the wire
// order is already the Vec invariant, so they land in place with no sorting
// and no map.
func decodeVector(r *Reader, typ byte) any {
	tag, iter := r.Str(), r.Iter()
	vals := gradecast.Vec(readIDs(r, 12, func(id int) gradecast.VecEntry {
		return gradecast.VecEntry{ID: sim.PartyID(id), Val: r.Float()}
	}))
	if typ == TypeGradecastEcho {
		return &gradecast.EchoMsg{Tag: tag, Iter: iter, Vals: vals}
	}
	return &gradecast.VoteMsg{Tag: tag, Iter: iter, Vals: vals}
}
