package adversary

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// Mutate byte-mutates the sends of the adversary it wraps: each message its
// corrupted parties put on their links — a broadcast expanded per recipient
// — has one bit of its wire encoding flipped with probability Rate per
// mille, and a mutation the codec rejects is dropped, as a receiver's
// decoder would drop it. A Byzantine party may send any bytes on its own
// authenticated links, so this stays inside the model; an honest or
// omission party's sends are never touched. Each decision is keyed on the
// message itself — Seed, round, addressing and encoded bytes — never drawn
// from a shared stream, so it does not depend on the order of the outbox.
// The wrapped adversary's fault sets and omission filter are forwarded as
// they are: an omission party's sends are dropped, never mutated.
type Mutate struct {
	sim.OutboxFilter
	N    int
	Rate int // per mille
	Seed int64
}

// Step implements sim.Adversary: the wrapped adversary's messages, mutated.
func (a *Mutate) Step(r int, honestOut []sim.Message, inbox map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	msgs, more := a.OutboxFilter.Step(r, honestOut, inbox)
	if a.Rate <= 0 || len(msgs) == 0 {
		return msgs, more
	}
	out := make([]sim.Message, 0, len(msgs))
	for _, m := range msgs {
		to, end := m.To, m.To+1
		if m.To == sim.Broadcast {
			to, end = 0, sim.PartyID(a.N)
		}
		for ; to < end; to++ {
			m.To = to
			if mm, ok := a.mutate(r, m); ok {
				out = append(out, mm)
			}
		}
	}
	return out, more
}

// mutate applies one message's keyed decision; false drops it.
func (a *Mutate) mutate(r int, m sim.Message) (sim.Message, bool) {
	b, err := wire.Encode(m.Payload)
	if err != nil {
		return m, true
	}
	rng := rand.New(rand.NewSource(msgKey(a.Seed^0x6d757461, r, m, b)))
	if rng.Intn(1000) >= a.Rate {
		return m, true
	}
	b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
	p, err := wire.Decode(b)
	if err != nil {
		return m, false
	}
	m.Payload = p
	return m, true
}

// msgKey hashes one message's identity — seed, round, addressing and
// encoded payload — into a deterministic per-message rng seed (FNV-1a).
func msgKey(seed int64, r int, m sim.Message, encoded []byte) int64 {
	var key []byte
	for _, x := range []int64{seed, int64(r), int64(m.From), int64(m.To)} {
		key = binary.LittleEndian.AppendUint64(key, uint64(x))
	}
	h := fnv.New64a()
	h.Write(append(key, encoded...))
	return int64(h.Sum64())
}
