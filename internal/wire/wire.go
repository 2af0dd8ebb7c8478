// Package wire is the deterministic, versioned binary codec for every
// payload the synchronous protocols put on the network: the gradecast
// send/echo/vote messages (which carry RealAA values and suspicion masks,
// PathsFinder list indices and TreeAA projection positions) and the crash-AA
// value broadcasts, plus the frames of the session service, its client API,
// journal and overlay. The internal/transport TCP layer frames
// these bodies onto sockets; the in-process engine never encodes (payloads
// cross goroutines as Go values) but charges exactly len(Encode(p)) bytes
// per message because every payload's sim.Sizer implementation mirrors this
// codec — TestSizerMatchesEncoding pins that equality. The gradecast
// messages are pointer-shaped: Encode takes only *SendMsg, *EchoMsg and
// *VoteMsg (a value form is an unknown payload) and Decode returns them.
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
//   - id→float64 maps: uvarint count, then entries sorted by strictly
//     ascending id, each id(u32) | value(f64).
//
// The fixed-width map entries keep sim.Sizer implementations O(1): a vector
// message's size is arithmetic on len(Tag) and len(Vals), never a map walk,
// so exact byte accounting costs the hot simulation path nothing.
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

// ErrUnknownPayload reports an Encode/EncodedSize call with a payload type
// the codec does not know.
var ErrUnknownPayload = errors.New("wire: unknown payload type")

// ErrMalformed reports a Decode rejection; the wrapped detail says why.
var ErrMalformed = errors.New("wire: malformed frame")

// Encode returns the canonical encoding of payload, which must be one of
// the protocol payload types listed in the package comment.
func Encode(payload any) ([]byte, error) {
	sz, err := EncodedSize(payload)
	if err != nil {
		return nil, err
	}
	return Append(make([]byte, 0, sz), payload)
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

// EncodedSize returns len(Encode(payload)) without encoding. For every
// payload type it equals the type's sim.Sizer Size(); the codec tests pin
// all three quantities to each other.
func EncodedSize(payload any) (int, error) {
	s, ok := payload.(sim.Sizer)
	if !ok {
		return 0, fmt.Errorf("%w: %T", ErrUnknownPayload, payload)
	}
	switch payload.(type) {
	case *gradecast.SendMsg, *gradecast.EchoMsg, *gradecast.VoteMsg,
		crashaa.ValueMsg,
		SessionMsg, SessionEOR, SessionOpen, SessionAbort, SessionDecide, SessionRound,
		ClientSubmit, ClientWait, ClientStatus, ClientOutcome,
		JournalOpen, JournalFrame, JournalSeal, RelayMsg, OverlayEOR,
		AsyncValue, AsyncReport:
		return s.Size(), nil
	}
	return 0, fmt.Errorf("%w: %T", ErrUnknownPayload, payload)
}

// Decode parses one canonical body and returns the concrete payload value.
// The whole buffer must be consumed; any structural violation (unknown
// version or type, truncation, trailing bytes, non-minimal varints,
// unsorted or duplicate map keys, oversized lengths) yields an error
// wrapping ErrMalformed, never a panic.
func Decode(b []byte) (any, error) {
	if len(b) < 2 {
		return nil, malformed("body shorter than header")
	}
	if b[0] != Version {
		return nil, malformed("version %d, want %d", b[0], Version)
	}
	typ, rest := b[1], b[2:]
	var (
		payload any
		err     error
	)
	switch typ {
	case TypeGradecastSend, TypeCrashValue:
		payload, rest, err = decodeScalar(rest, typ)
	case TypeGradecastEcho, TypeGradecastVote:
		payload, rest, err = decodeVector(rest, typ)
	case TypeSessionMsg:
		payload, rest, err = decodeSessionMsg(rest)
	case TypeSessionEOR:
		payload, rest, err = decodeSessionEOR(rest)
	case TypeSessionOpen:
		payload, rest, err = decodeSessionOpen(rest)
	case TypeSessionAbort:
		payload, rest, err = decodeSessionAbort(rest)
	case TypeSessionDecide:
		payload, rest, err = decodeSessionDecide(rest)
	case TypeSessionRound:
		payload, rest, err = decodeSessionRound(rest)
	case TypeClientSubmit:
		payload, rest, err = decodeClientSubmit(rest)
	case TypeClientWait, TypeClientStatus:
		payload, rest, err = decodeClientQuery(rest, typ)
	case TypeClientOutcome:
		payload, rest, err = decodeClientOutcome(rest)
	case TypeJournalOpen:
		payload, rest, err = decodeJournalOpen(rest)
	case TypeJournalFrame:
		payload, rest, err = decodeJournalFrame(rest)
	case TypeJournalSeal:
		payload, rest, err = decodeJournalSeal(rest)
	case TypeRelay:
		payload, rest, err = decodeRelay(rest)
	case TypeOverlayEOR:
		payload, rest, err = decodeOverlayEOR(rest)
	case TypeAsyncValue:
		payload, rest, err = decodeAsyncValue(rest)
	case TypeAsyncReport:
		payload, rest, err = decodeAsyncReport(rest)
	default:
		return nil, malformed("unknown type 0x%02x", typ)
	}
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, malformed("%d trailing bytes", len(rest))
	}
	return payload, nil
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// ---- primitive encoders (exported where the transport framing reuses them)

// AppendUvarint appends x as a canonical LEB128 varint.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// ConsumeUvarint reads a canonical uvarint, rejecting non-minimal
// encodings, and returns the value and the remaining bytes.
func ConsumeUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, malformed("bad uvarint")
	}
	if n != sim.UvarintLen(x) {
		return 0, nil, malformed("non-minimal uvarint")
	}
	return x, b[n:], nil
}

// AppendU32 appends x as a fixed big-endian u32.
func AppendU32(dst []byte, x uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, x)
}

// ConsumeU32 reads a fixed big-endian u32.
func ConsumeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, malformed("truncated u32")
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

func appendID(dst []byte, id int) ([]byte, error) {
	if id < 0 || id > MaxIDValue {
		return nil, fmt.Errorf("wire: id %d out of range [0, %d]", id, MaxIDValue)
	}
	return AppendU32(dst, uint32(id)), nil
}

func consumeID(b []byte) (int, []byte, error) {
	x, rest, err := ConsumeU32(b)
	if err != nil {
		return 0, nil, err
	}
	if x > MaxIDValue {
		return 0, nil, malformed("id %d out of range", x)
	}
	return int(x), rest, nil
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func consumeFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, malformed("truncated float64")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > maxLen {
		return nil, fmt.Errorf("wire: string of %d bytes exceeds limit", len(s))
	}
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...), nil
}

func consumeString(b []byte) (string, []byte, error) {
	n, rest, err := ConsumeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > maxLen || n > uint64(len(rest)) {
		return "", nil, malformed("string length %d exceeds buffer", n)
	}
	return string(rest[:n]), rest[n:], nil
}

func appendIter(dst []byte, iter int) ([]byte, error) {
	if iter < 0 {
		return nil, fmt.Errorf("wire: negative iteration %d", iter)
	}
	return AppendUvarint(dst, uint64(iter)), nil
}

func consumeIter(b []byte) (int, []byte, error) {
	x, rest, err := ConsumeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if x > math.MaxInt32 {
		return 0, nil, malformed("iteration %d out of range", x)
	}
	return int(x), rest, nil
}

// ---- shared field groups

// appendHeader writes version | type | tag-string | iter, the prefix every
// payload shares.
func appendHeader(dst []byte, typ byte, tag string, iter int) ([]byte, error) {
	dst = append(dst, Version, typ)
	dst, err := appendString(dst, tag)
	if err != nil {
		return nil, err
	}
	return appendIter(dst, iter)
}

func appendScalar(dst []byte, typ byte, tag string, iter int, val float64) ([]byte, error) {
	dst, err := appendHeader(dst, typ, tag, iter)
	if err != nil {
		return nil, err
	}
	return appendFloat(dst, val), nil
}

func decodeScalar(b []byte, typ byte) (any, []byte, error) {
	tag, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	iter, b, err := consumeIter(b)
	if err != nil {
		return nil, nil, err
	}
	val, b, err := consumeFloat(b)
	if err != nil {
		return nil, nil, err
	}
	if typ == TypeGradecastSend {
		return &gradecast.SendMsg{Tag: tag, Iter: iter, Val: val}, b, nil
	}
	return crashaa.ValueMsg{Tag: tag, Iter: iter, Val: val}, b, nil
}

// appendVector writes a gradecast.Vec, which is already in canonical order:
// Vecs are sorted by construction, so encoding validates the strictly
// ascending invariant instead of sorting a map's keys per message.
func appendVector(dst []byte, typ byte, tag string, iter int, vals gradecast.Vec) ([]byte, error) {
	dst, err := appendHeader(dst, typ, tag, iter)
	if err != nil {
		return nil, err
	}
	if len(vals) > maxLen {
		return nil, fmt.Errorf("wire: vector of %d entries exceeds limit", len(vals))
	}
	dst = AppendUvarint(dst, uint64(len(vals)))
	prev := -1
	for _, e := range vals {
		if int(e.ID) <= prev {
			return nil, fmt.Errorf("wire: vector ids not strictly ascending at %d", e.ID)
		}
		prev = int(e.ID)
		dst, err = appendID(dst, int(e.ID))
		if err != nil {
			return nil, err
		}
		dst = appendFloat(dst, e.Val)
	}
	return dst, nil
}

func decodeVector(b []byte, typ byte) (any, []byte, error) {
	tag, b, err := consumeString(b)
	if err != nil {
		return nil, nil, err
	}
	iter, b, err := consumeIter(b)
	if err != nil {
		return nil, nil, err
	}
	count, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// 12 bytes per entry: reject before allocating anything count-sized.
	if count > maxLen || count*12 > uint64(len(b)) {
		return nil, nil, malformed("vector count %d exceeds buffer", count)
	}
	// One exact-size flat allocation; the wire order is already the Vec
	// invariant, so entries land in place with no sorting and no map.
	var vals gradecast.Vec
	if count > 0 {
		vals = make(gradecast.Vec, 0, count)
	}
	prev := -1
	for i := uint64(0); i < count; i++ {
		var id int
		id, b, err = consumeID(b)
		if err != nil {
			return nil, nil, err
		}
		if id <= prev {
			return nil, nil, malformed("vector keys not strictly ascending")
		}
		prev = id
		var v float64
		v, b, err = consumeFloat(b)
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, gradecast.VecEntry{ID: sim.PartyID(id), Val: v})
	}
	if typ == TypeGradecastEcho {
		return &gradecast.EchoMsg{Tag: tag, Iter: iter, Vals: vals}, b, nil
	}
	return &gradecast.VoteMsg{Tag: tag, Iter: iter, Vals: vals}, b, nil
}
