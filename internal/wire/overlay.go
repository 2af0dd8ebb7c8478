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

// leafBody reports whether body is a leaf protocol frame of this codec's
// version, the only thing a relay carries. Full structural validation is the
// delivering node's Decode of the body; relays never pay it.
func leafBody(body []byte) bool {
	if len(body) >= 2 && body[0] == Version {
		switch body[1] {
		case TypeGradecastSend, TypeGradecastEcho, TypeGradecastVote, TypeCrashValue:
			return true
		}
	}
	return false
}

func appendRelay(dst []byte, m RelayMsg) ([]byte, error) {
	if len(m.Body) > maxLen || !leafBody(m.Body) {
		return nil, fmt.Errorf("wire: relay body is not a leaf protocol frame within the limit")
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
	dst, err := appendID(append(dst, Version, TypeRelay), int(m.Origin))
	if err != nil {
		return nil, err
	}
	dst = AppendUvarint(dst, uint64(int64(m.Dest)+1))
	dst = AppendUvarint(dst, m.Seq)
	dst = AppendUvarint(dst, uint64(m.Round))
	dst = AppendUvarint(dst, uint64(len(m.Body)))
	return append(dst, m.Body...), nil
}

func decodeRelay(r *Reader) any {
	origin, destPlus, seq := r.ID(), r.Uvarint(), r.Uvarint()
	if destPlus > MaxIDValue+1 {
		r.Fail("relay dest %d out of range", destPlus)
	}
	if seq == 0 {
		r.Fail("relay seq must be positive")
	}
	round, body := r.Round(), r.prefixed()
	if !leafBody(body) {
		r.Fail("relay body is not a leaf protocol frame")
	}
	return RelayMsg{Origin: sim.PartyID(origin), Dest: sim.PartyID(int64(destPlus) - 1),
		Seq: seq, Round: round, Body: append([]byte(nil), body...)}
}

// canonicalBitmap reports whether bm has the canonical minimal form.
func canonicalBitmap(bm []byte) bool {
	return len(bm) <= maxLen && (len(bm) == 0 || bm[len(bm)-1] != 0)
}

func appendOverlayEOR(dst []byte, m OverlayEOR) ([]byte, error) {
	if m.Round < 1 || m.Round > math.MaxInt32 {
		return nil, fmt.Errorf("wire: overlay eor round %d out of range", m.Round)
	}
	if !canonicalBitmap(m.Arrived) || !canonicalBitmap(m.Done) {
		return nil, fmt.Errorf("wire: overlay eor bitmap not in canonical minimal form")
	}
	if m.Down && len(m.Arrived) != 0 {
		return nil, fmt.Errorf("wire: down eor carries no arrived bitmap")
	}
	dst = appendFlag(AppendUvarint(append(dst, Version, TypeOverlayEOR), uint64(m.Round)), m.Down)
	dst = AppendUvarint(dst, uint64(len(m.Arrived)))
	dst = append(dst, m.Arrived...)
	dst = AppendUvarint(dst, uint64(len(m.Done)))
	return append(dst, m.Done...), nil
}

func decodeOverlayEOR(r *Reader) any {
	m := OverlayEOR{Round: r.Round(), Down: r.Flag(), Arrived: r.bitmap(), Done: r.bitmap()}
	if m.Down && len(m.Arrived) != 0 {
		r.Fail("down eor carries an arrived bitmap")
	}
	return m
}

func (r *Reader) bitmap() []byte {
	bm := r.prefixed()
	if !canonicalBitmap(bm) {
		r.Fail("bitmap has trailing zero byte")
	}
	if len(bm) == 0 {
		return nil
	}
	return append([]byte(nil), bm...)
}
