package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"treeaa/internal/sim"
)

// linkRNG derives the PRNG of one ordered link from the run seed. Every
// randomized decision of the injector draws from this stream in per-link
// frame order, so the fault schedule is a pure function of (seed, spec) —
// runtime timing, goroutine interleaving and reconnects never perturb it.
func linkRNG(seed int64, from, to sim.PartyID) *rand.Rand {
	h := fnv.New64a()
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(from))
	binary.BigEndian.PutUint64(buf[16:], uint64(to))
	h.Write(buf[:])
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// delayFor draws one frame's latency: Base plus a uniform jitter in
// [-Jitter, +Jitter], quantized to nanoseconds.
func delayFor(l *Latency, rng *rand.Rand) time.Duration {
	d := l.Base
	if l.Jitter > 0 {
		d += time.Duration(rng.Int63n(2*int64(l.Jitter)+1)) - l.Jitter
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Schedule renders the plan's materialized fault schedule for one seed: the
// concrete per-link delays of the first framesPerLink frames, and every
// stall, drop and partition with its resolved parameters. It is a
// pure function of (spec, seed, n) — the goldens under testdata/ pin that
// identical seeds and specs reproduce identical schedules.
func (p *Plan) Schedule(seed int64, n, framesPerLink int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos plan %q seed %d n %d\n", p.Spec, seed, n)
	if p.Empty() {
		sb.WriteString("  (nothing injected)\n")
		return sb.String()
	}
	// Each lat clause previews against a fresh per-link PRNG. With several
	// clauses matching one link the runtime interleaves their draws per
	// frame, so the preview is exact for single-clause plans (what the
	// golden pins) and per-clause indicative otherwise.
	for ci := range p.Latencies {
		l := &p.Latencies[ci]
		if l.From == AllLinks {
			fmt.Fprintf(&sb, "  lat base %v jitter %v\n", l.Base, l.Jitter)
		} else {
			fmt.Fprintf(&sb, "  lat base %v jitter %v from p%d\n", l.Base, l.Jitter, l.From)
		}
		for from := sim.PartyID(0); int(from) < n; from++ {
			if l.From != AllLinks && from != l.From {
				continue
			}
			for to := sim.PartyID(0); int(to) < n; to++ {
				if from == to {
					continue
				}
				rng := linkRNG(seed, from, to)
				delays := make([]string, framesPerLink)
				for i := range delays {
					delays[i] = delayFor(l, rng).String()
				}
				fmt.Fprintf(&sb, "    link %d->%d: %s\n", from, to, strings.Join(delays, " "))
			}
		}
	}
	for _, s := range p.Stalls {
		fmt.Fprintf(&sb, "  stall p%d rounds %d-%d dur %v\n", s.Party, s.FromRound, s.ToRound, s.Dur)
	}
	for _, d := range p.Drops {
		if d.To == AllLinks {
			fmt.Fprintf(&sb, "  drop p%d->* at round %d\n", d.From, d.Round)
		} else {
			fmt.Fprintf(&sb, "  drop p%d->p%d at round %d\n", d.From, d.To, d.Round)
		}
	}
	for _, part := range p.Partitions {
		fmt.Fprintf(&sb, "  partition {%s | %s} rounds %d-%d heal %v\n",
			renderSide(part.SideA), renderSide(part.SideB), part.FromRound, part.ToRound, part.Heal)
	}
	return sb.String()
}

func renderSide(side []sim.PartyID) string {
	ids := make([]string, len(side))
	for i, id := range side {
		ids[i] = fmt.Sprintf("p%d", id)
	}
	return strings.Join(ids, " ")
}
