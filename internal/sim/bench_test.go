package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// castMachine is the cheapest machine that keeps the engine busy: one
// broadcast a round from a reused outbox, inbox unread, nothing allocated.
type castMachine struct {
	rounds int
	out    [1]Message
	done   bool
}

func (m *castMachine) Step(r int, _ []Message) []Message {
	if r > m.rounds {
		m.done = true
		return nil
	}
	m.out[0] = Message{To: Broadcast, Payload: intPayload(r)}
	return m.out[:]
}

func (m *castMachine) Output() (any, bool) { return nil, m.done }

// splitSender corrupts the last t parties; each sends every party its own
// value every round — the unicast traffic of a vote-splitting strategy.
type splitSender struct {
	n, t int
	out  []Message
}

func (a *splitSender) Initial() []PartyID {
	ids := make([]PartyID, a.t)
	for i := range ids {
		ids[i] = PartyID(a.n - a.t + i)
	}
	return ids
}

func (a *splitSender) Step(r int, _ []Message, _ map[PartyID][]Message) ([]Message, []PartyID) {
	a.out = a.out[:0]
	for from := a.n - a.t; from < a.n; from++ {
		for to := 0; to < a.n; to++ {
			a.out = append(a.out, Message{From: PartyID(from), To: PartyID(to), Payload: intPayload(to)})
		}
	}
	return a.out, nil
}

// BenchmarkRunBroadcast is the engine's own number: all-broadcast rounds of a
// trivial machine, so ns/round and allocs/round are delivery cost alone —
// honest, and beside t corrupted senders that unicast to everyone.
func BenchmarkRunBroadcast(b *testing.B) {
	const rounds = 64
	for _, n := range []int{16, 32, 64} {
		for _, adversary := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/honest", n)
			if adversary {
				name = fmt.Sprintf("n=%d/adversary", n)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				machines := make([]Machine, n)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := Config{N: n, MaxRounds: rounds + 2}
					if adversary {
						cfg.MaxCorrupt = (n - 1) / 3
						cfg.Adversary = &splitSender{n: n, t: cfg.MaxCorrupt}
					}
					for p := range machines {
						machines[p] = &castMachine{rounds: rounds}
					}
					if _, err := Run(cfg, machines); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				perRound := float64(b.N) * (rounds + 1)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRound, "ns/round")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perRound, "allocs/round")
			})
		}
	}
}
