package overlay

// Overlay link handshake. A child dials its parent and opens with a hello
// carrying its per-origin receive watermarks (the highest relay sequence it
// has accepted from each origin) and the last round release it holds; the
// parent answers with an ack carrying its own watermarks. Each side then
// replays the retained frames the other lacks — which makes initial
// connects and failover re-homes the same code path, differing only in how
// much the watermarks say is missing.
//
//	hello  "TAAO" | version | uvarint(session) | u32(from) | u32(to) |
//	       u32(n) | u32(branching) | flags | uvarint(lastDown) | watermarks
//	ack    "TAAK" | version | watermarks
//
// watermarks = uvarint(count) then count × (u32(origin) | uvarint(have)),
// ascending by origin, zero entries omitted. After the handshake every
// frame on the link is a wire-encoded payload (wire.Version leads, so the
// two vocabularies cannot be confused).

import (
	"fmt"

	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

const overlayVersion byte = 1

var (
	helloMagic = [4]byte{'T', 'A', 'A', 'O'}
	ackMagic   = [4]byte{'T', 'A', 'A', 'K'}
)

// hello is the parsed first frame of an overlay link.
type hello struct {
	session  uint64
	from, to sim.PartyID
	n        int
	branch   int
	lastDown int
	have     []uint64 // per-origin accepted watermark, length n
}

func appendWatermarks(dst []byte, have []uint64) []byte {
	count := 0
	for _, w := range have {
		if w > 0 {
			count++
		}
	}
	dst = wire.AppendUvarint(dst, uint64(count))
	for o, w := range have {
		if w > 0 {
			dst = wire.AppendU32(dst, uint32(o))
			dst = wire.AppendUvarint(dst, w)
		}
	}
	return dst
}

// readWatermarks reads the watermarks of an n-party overlay.
func readWatermarks(r *wire.Reader, n int) []uint64 {
	count := r.Uvarint()
	if count > uint64(n) {
		r.Fail("%d watermarks for n = %d", count, n)
		return nil
	}
	have := make([]uint64, n)
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		o := r.U32()
		if int(o) >= n {
			r.Fail("watermark origin %d out of range", o)
			return nil
		}
		have[o] = r.Uvarint()
	}
	return have
}

// readHead reads a handshake frame's magic and version.
func readHead(r *wire.Reader, magic [4]byte) {
	if string(r.Bytes(4)) != string(magic[:]) {
		r.Fail("bad magic, want %q", magic[:])
	}
	if v := r.Byte(); v != overlayVersion {
		r.Fail("version %d, want %d", v, overlayVersion)
	}
}

func encodeHello(h hello) []byte {
	body := make([]byte, 0, 64)
	body = append(body, helloMagic[:]...)
	body = append(body, overlayVersion)
	body = wire.AppendUvarint(body, h.session)
	body = wire.AppendU32(body, uint32(h.from))
	body = wire.AppendU32(body, uint32(h.to))
	body = wire.AppendU32(body, uint32(h.n))
	body = wire.AppendU32(body, uint32(h.branch))
	body = append(body, 0) // flags, reserved
	body = wire.AppendUvarint(body, uint64(h.lastDown))
	return appendWatermarks(body, h.have)
}

// parseHello decodes a hello sent to a party of an n-party overlay. A hello
// naming another n is refused before its watermarks are read, so what it
// claims never sizes an allocation.
func parseHello(body []byte, n int) (hello, error) {
	r := wire.NewReader(body)
	readHead(&r, helloMagic)
	h := hello{session: r.Uvarint(), from: sim.PartyID(r.ID()), to: sim.PartyID(r.ID()),
		n: r.ID(), branch: int(r.U32())}
	if r.Byte() != 0 {
		r.Fail("bad hello flags")
	}
	h.lastDown = int(r.Uvarint())
	if h.n != n {
		r.Fail("hello n = %d, want %d", h.n, n)
	}
	h.have = readWatermarks(&r, n)
	if err := r.End(); err != nil {
		return hello{}, fmt.Errorf("overlay: hello: %w", err)
	}
	return h, nil
}

func encodeAck(have []uint64) []byte {
	body := make([]byte, 0, 32)
	body = append(body, ackMagic[:]...)
	body = append(body, overlayVersion)
	return appendWatermarks(body, have)
}

func parseAck(body []byte, n int) ([]uint64, error) {
	r := wire.NewReader(body)
	readHead(&r, ackMagic)
	have := readWatermarks(&r, n)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("overlay: hello-ack: %w", err)
	}
	return have, nil
}

// bitset is a little-endian party set (party p is bit p%8 of byte p/8),
// kept in the canonical minimal form wire.OverlayEOR requires: it only ever
// grows to the byte holding the highest set bit, so the last byte is never
// zero and the empty set is nil.
type bitset []byte

func (b bitset) has(p sim.PartyID) bool {
	i := int(p) / 8
	return i < len(b) && b[i]&(1<<(uint(p)%8)) != 0
}

// set adds p, reporting whether the set grew.
func (b *bitset) set(p sim.PartyID) bool {
	i := int(p) / 8
	for len(*b) <= i {
		*b = append(*b, 0)
	}
	mask := byte(1) << (uint(p) % 8)
	if (*b)[i]&mask != 0 {
		return false
	}
	(*b)[i] |= mask
	return true
}

// merge ors another canonical bitmap in, reporting whether the set grew.
func (b *bitset) merge(o []byte) bool {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	grew := false
	for i, x := range o {
		if x&^(*b)[i] != 0 {
			grew = true
			(*b)[i] |= x
		}
	}
	return grew
}

func (b bitset) count() int {
	total := 0
	for _, x := range b {
		for ; x != 0; x &= x - 1 {
			total++
		}
	}
	return total
}

func (b bitset) full(n int) bool { return b.count() == n }

func (b bitset) clone() []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
