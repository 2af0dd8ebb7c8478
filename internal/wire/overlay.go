package wire

// Overlay payloads for the communication-tree transport (internal/overlay):
// instead of a full mesh, parties connect along a deterministic three-level
// tree and flood protocol traffic along its edges. Two types:
//
//	Relay      0x14  flooded relay envelope around one leaf protocol body:
//	                 u32(origin) | uvarint(dest+1) | uvarint(seq) |
//	                 uvarint(round) | uvarint(len) | body
//	OverlayEOR 0x15  aggregated end-of-round control frame:
//	                 uvarint(round) | flags(1) (bit 0: down) |
//	                 uvarint(len) arrived-bitmap | uvarint(len) done-bitmap
//
// A Relay's dest is encoded shifted by one so that sim.Broadcast (-1) has a
// canonical representation (0). The body must be a leaf protocol frame
// (types 0x01–0x03 and 0x05): relays forward the envelope bytes verbatim without
// decoding the body, so the codec validates only the nested header here and
// the delivering node decodes (and thereby fully validates) the body.
// Canonicality of the envelope itself is preserved — the body bytes are
// copied untouched in both directions, so Encode(Decode(b)) == b holds.
//
// OverlayEOR bitmaps are little-endian party sets (party p is bit p%8 of
// byte p/8) with a canonical minimal length: the last byte must be nonzero,
// and the empty set is the empty byte string. Up frames (flags bit 0 clear)
// carry a node's cumulative arrived/done knowledge toward the root; down
// frames carry the root's release for the round, with the arrived bitmap
// empty and the done bitmap naming the parties whose machines terminated.

import (
	"encoding/binary"
	"fmt"
	"math"

	"treeaa/internal/sim"
)

// Overlay type tags (continuing the journal tags 0x11–0x13).
const (
	TypeRelay      byte = 0x14
	TypeOverlayEOR byte = 0x15
)

// relayHeaderMax and eorHeaderMax bound what an envelope adds around its
// body or bitmaps (longest uvarints), so Encode allocates one buffer for it.
const relayHeaderMax = 2 + 4 + 3*binary.MaxVarintLen32 + binary.MaxVarintLen64
const eorHeaderMax = 2 + 3*binary.MaxVarintLen32 + 1

// RelayMsg is the flooded overlay envelope: origin's seq'th protocol
// message of the run, addressed to Dest (sim.Broadcast for everyone),
// carrying one encoded leaf protocol frame.
type RelayMsg struct {
	Origin sim.PartyID
	Dest   sim.PartyID // sim.Broadcast or a concrete party
	Seq    uint64      // per-origin, strictly increasing from 1
	Round  int
	Body   []byte // one canonical leaf frame (version | 0x01–0x03 or 0x05 | ...)
}

// OverlayEOR is the aggregated round barrier of the tree overlay.
type OverlayEOR struct {
	Round   int
	Down    bool   // root's release (true) vs child's cumulative report
	Arrived []byte // parties whose round traffic is accounted for (up only)
	Done    []byte // parties whose machines have terminated
}

// checkRelayBody validates the nested frame header of a relay body: a leaf
// protocol frame of this codec's version. Full structural validation is the
// delivering node's Decode of the body; relays never pay it.
func checkRelayBody(body []byte) error {
	if len(body) > maxLen {
		return fmt.Errorf("wire: relay body of %d bytes exceeds limit", len(body))
	}
	if len(body) >= 2 && body[0] == Version {
		switch body[1] {
		case TypeGradecastSend, TypeGradecastEcho, TypeGradecastVote, TypeCrashValue:
			return nil
		}
	}
	return fmt.Errorf("wire: relay body is not a leaf protocol frame")
}

func appendRelay(dst []byte, m RelayMsg) ([]byte, error) {
	if err := checkRelayBody(m.Body); err != nil {
		return nil, err
	}
	if m.Dest < sim.Broadcast || int(m.Dest) > MaxIDValue {
		return nil, fmt.Errorf("wire: relay dest %d out of range", m.Dest)
	}
	if m.Seq == 0 {
		return nil, fmt.Errorf("wire: relay seq must be positive")
	}
	if m.Round < 1 || m.Round > math.MaxInt32 {
		return nil, fmt.Errorf("wire: relay round %d out of range", m.Round)
	}
	dst = append(dst, Version, TypeRelay)
	dst, err := appendID(dst, int(m.Origin))
	if err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, uint64(int64(m.Dest)+1))
	dst = AppendUvarint(dst, m.Seq)
	dst = AppendUvarint(dst, uint64(m.Round))
	dst = AppendUvarint(dst, uint64(len(m.Body)))
	return append(dst, m.Body...), nil
}

func decodeRelay(b []byte) (any, []byte, error) {
	origin, b, err := consumeID(b)
	if err != nil {
		return nil, nil, err
	}
	destPlus, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if destPlus > MaxIDValue+1 {
		return nil, nil, malformed("relay dest %d out of range", destPlus)
	}
	seq, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if seq == 0 {
		return nil, nil, malformed("relay seq must be positive")
	}
	round, b, err := consumeSessionRound(b)
	if err != nil {
		return nil, nil, err
	}
	blen, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if blen > maxLen || blen > uint64(len(b)) {
		return nil, nil, malformed("relay body length %d exceeds buffer", blen)
	}
	body := append([]byte(nil), b[:blen]...)
	if err := checkRelayBody(body); err != nil {
		return nil, nil, malformed("%v", err)
	}
	return RelayMsg{Origin: sim.PartyID(origin), Dest: sim.PartyID(int64(destPlus) - 1),
		Seq: seq, Round: round, Body: body}, b[blen:], nil
}

// checkBitmap enforces the canonical minimal bitmap form.
func checkBitmap(name string, bm []byte) error {
	if len(bm) > maxLen {
		return fmt.Errorf("wire: %s bitmap of %d bytes exceeds limit", name, len(bm))
	}
	if n := len(bm); n > 0 && bm[n-1] == 0 {
		return fmt.Errorf("wire: %s bitmap has trailing zero byte", name)
	}
	return nil
}

func appendOverlayEOR(dst []byte, m OverlayEOR) ([]byte, error) {
	if m.Round < 1 || m.Round > math.MaxInt32 {
		return nil, fmt.Errorf("wire: overlay eor round %d out of range", m.Round)
	}
	if err := checkBitmap("arrived", m.Arrived); err != nil {
		return nil, err
	}
	if err := checkBitmap("done", m.Done); err != nil {
		return nil, err
	}
	if m.Down && len(m.Arrived) != 0 {
		return nil, fmt.Errorf("wire: down eor carries no arrived bitmap")
	}
	dst = append(dst, Version, TypeOverlayEOR)
	dst = AppendUvarint(dst, uint64(m.Round))
	var flags byte
	if m.Down {
		flags |= 0x01
	}
	dst = append(dst, flags)
	dst = AppendUvarint(dst, uint64(len(m.Arrived)))
	dst = append(dst, m.Arrived...)
	dst = AppendUvarint(dst, uint64(len(m.Done)))
	return append(dst, m.Done...), nil
}

func decodeOverlayEOR(b []byte) (any, []byte, error) {
	round, b, err := consumeSessionRound(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < 1 {
		return nil, nil, malformed("truncated overlay eor")
	}
	flags := b[0]
	if flags&^byte(0x01) != 0 {
		return nil, nil, malformed("unknown overlay eor flags %#x", flags)
	}
	b = b[1:]
	arrived, b, err := consumeBitmap(b)
	if err != nil {
		return nil, nil, err
	}
	done, b, err := consumeBitmap(b)
	if err != nil {
		return nil, nil, err
	}
	m := OverlayEOR{Round: round, Down: flags&0x01 != 0, Arrived: arrived, Done: done}
	if m.Down && len(m.Arrived) != 0 {
		return nil, nil, malformed("down eor carries an arrived bitmap")
	}
	return m, b, nil
}

func consumeBitmap(b []byte) ([]byte, []byte, error) {
	n, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > maxLen || n > uint64(len(b)) {
		return nil, nil, malformed("bitmap length %d exceeds buffer", n)
	}
	if n == 0 {
		return nil, b, nil
	}
	bm := append([]byte(nil), b[:n]...)
	if bm[n-1] == 0 {
		return nil, nil, malformed("bitmap has trailing zero byte")
	}
	return bm, b[n:], nil
}
