package transport

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/cli"
	"treeaa/internal/core"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// buildMachines constructs the n TreeAA machines for one run. Machines hold
// state, so each driver gets a fresh set.
func buildMachines(t *testing.T, tr *tree.Tree, n, tcorrupt int, inputs []tree.VertexID) []sim.Machine {
	t.Helper()
	machines := make([]sim.Machine, n)
	for i := 0; i < n; i++ {
		m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: tcorrupt, ID: sim.PartyID(i), Input: inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

// splitVote composes the per-phase SplitVote strategies the way cmd/treeaa
// does. Strategies hold per-iteration state, so each driver gets fresh ones.
func splitVote(tr *tree.Tree, n, tcorrupt int) sim.Adversary {
	return splitVoteAt(tr, n, tcorrupt, adversary.FirstParties(n, tcorrupt)...)
}

// splitVoteAt is splitVote with the corrupted set of one's choosing.
func splitVoteAt(tr *tree.Tree, n, tcorrupt int, ids ...sim.PartyID) sim.Adversary {
	var parts []sim.Adversary
	for _, p := range core.PhaseTags(tr, tcorrupt) {
		parts = append(parts, &adversary.SplitVote{
			IDs: ids, N: n, T: tcorrupt, Tag: p.Tag, StartRound: p.StartRound, PerIteration: 1,
		})
	}
	return &adversary.Compose{Strategies: parts}
}

func spreadInputs(tr *tree.Tree, n, seed int) []tree.VertexID {
	inputs := make([]tree.VertexID, n)
	for i := range inputs {
		// Seed-dependent rotation so different seeds exercise different
		// input placements without leaving the vertex range.
		inputs[i] = tree.VertexID((i*(tr.NumVertices()-1)/(n-1) + seed) % tr.NumVertices())
	}
	return inputs
}

// TestClusterMatchesSimSplitVote is the subsystem's correctness anchor: for
// seeds 1..5 on the paper's path:40 topology with the splitvote adversary,
// the TCP loopback cluster must reproduce the sequential engine's Result —
// outputs, rounds, message count, byte count and per-round trace — exactly.
func TestClusterMatchesSimSplitVote(t *testing.T) {
	tr := tree.NewPath(40)
	const n, tc = 7, 2
	for seed := 1; seed <= 5; seed++ {
		inputs := spreadInputs(tr, n, seed)

		var simTrace sim.Trace
		simCfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2,
			Adversary: splitVote(tr, n, tc), Trace: &simTrace}
		want, err := sim.Run(simCfg, buildMachines(t, tr, n, tc, inputs))
		if err != nil {
			t.Fatalf("seed %d: sim.Run: %v", seed, err)
		}

		var tcpTrace sim.Trace
		tcpCfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2,
			Adversary: splitVote(tr, n, tc), Trace: &tcpTrace}
		got, err := LocalCluster(tcpCfg, buildMachines(t, tr, n, tc, inputs), Options{})
		if err != nil {
			t.Fatalf("seed %d: LocalCluster: %v", seed, err)
		}

		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: results diverge\n tcp: %+v\n sim: %+v", seed, got, want)
		}
		if !reflect.DeepEqual(tcpTrace, simTrace) {
			t.Errorf("seed %d: traces diverge\n tcp: %+v\n sim: %+v", seed, tcpTrace, simTrace)
		}
	}
}

// frameTap reports every data frame written on one end of a link — round
// frames and mirrors, in write order — with its envelope tag and the round
// FrameInfo reads off it. A link writes batches, so each write is walked.
type frameTap struct {
	net.Conn
	seen func(tag byte, round int)
}

func (c *frameTap) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		round, control, size := FrameInfo(rest)
		if size == 0 {
			break
		}
		if _, body, _ := wire.ConsumeUvarint(rest); !control || body[0] == FrameMuxSession {
			c.seen(body[0], round)
		}
		rest = rest[size:]
	}
	return c.Conn.Write(b)
}

// TestObserverMirrorsPrecedeRoundFrame: on every honest → observer link the
// mirror frames of round r come before the round-r frame, the one that
// carries the mark the adversary host steps round r on — so a complete
// barrier at the observer means complete mirrors.
func TestObserverMirrorsPrecedeRoundFrame(t *testing.T) {
	tr := tree.NewPath(16)
	const n, tc = 4, 1
	adv := splitVote(tr, n, tc)
	observer := adv.Initial()[0]
	var mu sync.Mutex
	var bad []string
	mirrors := 0
	cfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2, Adversary: adv}
	_, err := LocalCluster(cfg, buildMachines(t, tr, n, tc, spreadInputs(tr, n, 1)), Options{
		WrapConn: func(from, to sim.PartyID, conn net.Conn) net.Conn {
			if to != observer {
				return conn
			}
			marked := 0 // the last round whose frame went out on this link
			return &frameTap{conn, func(tag byte, round int) {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case tag == frameMirror && round == marked+1:
					mirrors++
				case tag == FrameMuxSession && round == marked+1:
					marked = round
				default:
					bad = append(bad, fmt.Sprintf("link %d→%d: frame %#x of round %d after the mark of round %d", from, to, tag, round, marked))
				}
			}}
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
	if mirrors == 0 {
		t.Error("no mirror frame reached the observer")
	}
}

// viewLog records, round by round, the honestOut its adversary is handed:
// each entry's addressing and round, and its payload's wire bytes.
type viewLog struct {
	sim.Adversary
	t     *testing.T
	views [][]string
}

func (a *viewLog) Step(r int, honestOut []sim.Message, inbox map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	view := make([]string, len(honestOut))
	for i, m := range honestOut {
		body, err := wire.Encode(m.Payload)
		if err != nil {
			a.t.Error(err) // not Fatal: the host steps on its own goroutine
		}
		view[i] = fmt.Sprintf("%d→%d r%d %x", m.From, m.To, m.Round, body)
	}
	a.views = append(a.views, view)
	return a.Adversary.Step(r, honestOut, inbox)
}

// TestAdversaryViewSameOnBothFabrics: the adversary host rebuilds from mirror
// frames exactly the honestOut sim.Run hands the adversary — each honest send
// once, a broadcast with To == Broadcast — and the honest parties send one
// mirror per send, not one per recipient.
func TestAdversaryViewSameOnBothFabrics(t *testing.T) {
	tr := tree.NewPath(16)
	const n, tc = 7, 2
	sp := &cli.Space{Tree: tr}
	for _, spec := range []string{"splitvote", "replay(delay=3)"} {
		for seed := 1; seed <= 3; seed++ {
			var logs [2]*viewLog
			mirrors := 0
			for i := range logs {
				adv, _, err := sp.BuildAdversary(spec, n, tc, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				logs[i] = &viewLog{Adversary: adv, t: t}
				cfg := sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2, Adversary: logs[i]}
				machines := buildMachines(t, tr, n, tc, spreadInputs(tr, n, seed))
				if i == 0 {
					_, err = sim.Run(cfg, machines)
				} else {
					var mu sync.Mutex
					observer := adv.Initial()[0]
					_, err = LocalCluster(cfg, machines, Options{
						WrapConn: func(_, to sim.PartyID, conn net.Conn) net.Conn {
							if to != observer {
								return conn
							}
							return &frameTap{conn, func(tag byte, _ int) {
								if tag == frameMirror {
									mu.Lock()
									mirrors++
									mu.Unlock()
								}
							}}
						}})
				}
				if err != nil {
					t.Fatalf("%s seed %d: %v", spec, seed, err)
				}
			}
			if !reflect.DeepEqual(logs[1].views, logs[0].views) {
				t.Errorf("%s seed %d: views diverge\n tcp: %v\n sim: %v", spec, seed, logs[1].views, logs[0].views)
			}
			sends, broadcasts := 0, 0
			for r, view := range logs[0].views {
				if len(view) > 2*(n-tc) { // a TreeAA round: a value and a suspicion-mask send per party
					t.Errorf("%s seed %d: round %d view holds %d entries for %d honest parties", spec, seed, r+1, len(view), n-tc)
				}
				sends += len(view)
				for _, m := range view {
					if strings.Contains(m, fmt.Sprintf("→%d ", sim.Broadcast)) {
						broadcasts++
					}
				}
			}
			if broadcasts == 0 || mirrors != sends {
				t.Errorf("%s seed %d: %d mirror frames for %d honest sends (%d broadcasts), want one per send",
					spec, seed, mirrors, sends, broadcasts)
			}
			t.Logf("%s seed %d: %d mirror frames over %d rounds for %d honest parties (%d expanded)",
				spec, seed, mirrors, len(logs[0].views), n-tc, sends-broadcasts+n*broadcasts)
		}
	}
}

// TestClusterMatchesSimNoAdversary covers the honest-only path (no mirrors,
// no adversary host) on a non-path topology.
func TestClusterMatchesSimNoAdversary(t *testing.T) {
	tr := tree.NewSpider(3, 5)
	const n = 5
	inputs := spreadInputs(tr, n, 2)

	var simTrace sim.Trace
	simCfg := sim.Config{N: n, MaxCorrupt: 1, MaxRounds: core.Rounds(tr, 1) + 2, Trace: &simTrace}
	want, err := sim.Run(simCfg, buildMachines(t, tr, n, 1, inputs))
	if err != nil {
		t.Fatal(err)
	}

	var tcpTrace sim.Trace
	tcpCfg := sim.Config{N: n, MaxCorrupt: 1, MaxRounds: core.Rounds(tr, 1) + 2, Trace: &tcpTrace}
	got, err := LocalCluster(tcpCfg, buildMachines(t, tr, n, 1, inputs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results diverge\n tcp: %+v\n sim: %+v", got, want)
	}
	if !reflect.DeepEqual(tcpTrace, simTrace) {
		t.Errorf("traces diverge\n tcp: %+v\n sim: %+v", tcpTrace, simTrace)
	}
}

// TestClusterRejectsUndistributableFeatures: the three engine features with
// no distributed counterpart fail fast with explanatory errors.
func TestClusterRejectsUndistributableFeatures(t *testing.T) {
	tr := tree.NewPath(8)
	const n = 4
	inputs := spreadInputs(tr, n, 1)
	base := sim.Config{N: n, MaxCorrupt: 1, MaxRounds: core.Rounds(tr, 1) + 2}

	rateLimited := base
	rateLimited.MaxMessagesPerParty = 10
	if _, err := LocalCluster(rateLimited, buildMachines(t, tr, n, 1, inputs), Options{}); err == nil {
		t.Error("accepted MaxMessagesPerParty")
	}

	adaptive := base
	adaptive.Adversary = &adversary.CrashAt{IDs: []sim.PartyID{3}, Rounds: []int{2}}
	if _, err := LocalCluster(adaptive, buildMachines(t, tr, n, 1, inputs), Options{}); err == nil {
		t.Error("accepted an adversary with no initial corruptions (adaptive-only)")
	}

	budget := base
	budget.Adversary = &adversary.Silent{IDs: []sim.PartyID{2, 3}}
	if _, err := LocalCluster(budget, buildMachines(t, tr, n, 1, inputs), Options{}); !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Errorf("budget overrun: got %v, want ErrBudgetExceeded", err)
	}

	tampered := base
	tampered.Tamper = func(r int, m sim.Message) (sim.Message, bool) { return m, true }
	if _, err := LocalCluster(tampered, buildMachines(t, tr, n, 1, inputs), Options{}); err == nil {
		t.Error("accepted a delivery-seam tamper hook")
	}
}
