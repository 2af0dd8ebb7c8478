package session

import (
	"bytes"
	"io"
	"net"
	"testing"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// prefixConn serves a length prefix and fails the test if the server asks
// for anything after it.
type prefixConn struct {
	net.Conn
	t      *testing.T
	prefix []byte
	closed chan struct{}
}

func (c *prefixConn) Read(p []byte) (int, error) {
	if len(c.prefix) == 0 {
		c.t.Error("the server read past the length prefix of an oversized request")
		return 0, io.EOF
	}
	n := copy(p, c.prefix)
	c.prefix = c.prefix[n:]
	return n, nil
}

func (c *prefixConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

// TestClientRequestBoundedBeforeRead: a client that announces a 15 MiB
// request — legal on a peer link, far past maxClientRequest — is hung up on
// at the prefix: nothing is allocated for the body and nothing of it read.
func TestClientRequestBoundedBeforeRead(t *testing.T) {
	d := &Daemon{closedCh: make(chan struct{})}
	conn := &prefixConn{t: t, prefix: wire.AppendUvarint(nil, 15<<20), closed: make(chan struct{})}
	d.clientWG.Add(1)
	d.serveClient(conn)
	select {
	case <-conn.closed:
	default:
		t.Error("the connection of an oversized request was left open")
	}
}

// recordingMachine notes what a machine sends each round and whether it had
// output by then.
type recordingMachine struct {
	sim.Machine
	sent [][]sim.Message // index: round-1
	done []bool
}

func (m *recordingMachine) Step(r int, inbox []sim.Message) []sim.Message {
	out := m.Machine.Step(r, inbox)
	_, done := m.Machine.Output()
	m.sent, m.done = append(m.sent, append([]sim.Message(nil), out...)), append(m.done, done)
	return out
}

type recordingAdversary struct {
	sim.Adversary
	sent [][]sim.Message
}

func (a *recordingAdversary) Step(r int, honestOut []sim.Message, inbox map[sim.PartyID][]sim.Message) ([]sim.Message, []sim.PartyID) {
	out, more := a.Adversary.Step(r, honestOut, inbox)
	a.sent = append(a.sent, append([]sim.Message(nil), out...))
	return out, more
}

// linkTap collects the round frames written on one end of a mesh link. A
// link writes batches, so each write is walked.
type linkTap struct {
	net.Conn
	frames *[][]byte
}

func (c linkTap) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		_, _, size := transport.FrameInfo(rest)
		if size == 0 {
			break
		}
		r := wire.NewReader(rest[:size])
		r.Uvarint()
		if body := r.Rest(); body[0] == transport.FrameMuxSession {
			*c.frames = append(*c.frames, append([]byte(nil), body[1:]...))
		}
		rest = rest[size:]
	}
	return c.Conn.Write(b)
}

// stagedFrames is what a seat's driver.Framer stages per peer — the send an
// engine hands it, spreading a broadcast frame over every peer as the mux
// does — kept in staging order.
func stagedFrames(self sim.PartyID, n int) (send func(to sim.PartyID, frame []byte), staged [][][]byte) {
	staged = make([][][]byte, n)
	return func(to sim.PartyID, frame []byte) {
		first, last := driver.Span(n, to)
		for p := first; p <= last; p++ {
			if p != self {
				staged[p] = append(staged[p], append([]byte(nil), frame...))
			}
		}
	}, staged
}

// TestRoundFrameIdenticalAcrossFabrics: the rounds of one execution — honest
// TreeAA seats, whose every round is all broadcasts, and a splitvote seat,
// whose rounds carry a different vote per peer — put the same SessionRound
// body on every link whether the one-shot mesh ships them (node and adversary
// host) or a session engine does, session id aside. The mesh side is a real
// loopback run with its links tapped; the engine side replays what each seat
// sent, round by round, through what engine.begin builds — a driver.Framer
// — with what it stages collected per peer.
func TestRoundFrameIdenticalAcrossFabrics(t *testing.T) {
	const n, tc, sid = 4, 1, 77
	tr := tree.NewPath(16)
	var parts []sim.Adversary
	for _, p := range core.PhaseTags(tr, tc) {
		parts = append(parts, &adversary.SplitVote{IDs: adversary.FirstParties(n, tc), N: n, T: tc,
			Tag: p.Tag, StartRound: p.StartRound, PerIteration: 1})
	}
	adv := &recordingAdversary{Adversary: &adversary.Compose{Strategies: parts}}
	corrupted := adv.Initial()[0]
	machines := make([]sim.Machine, n)
	recs := make([]*recordingMachine, n)
	for i := range machines {
		m, err := core.NewMachine(core.Config{Tree: tr, N: n, T: tc, ID: sim.PartyID(i),
			Input: tree.VertexID(i * (tr.NumVertices() - 1) / (n - 1))})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = &recordingMachine{Machine: m}
		machines[i] = recs[i]
	}
	var mesh [n][n][][]byte // [from][to] round frame bodies, in order; each link has one writer
	res, err := transport.LocalCluster(
		sim.Config{N: n, MaxCorrupt: tc, MaxRounds: core.Rounds(tr, tc) + 2, Adversary: adv}, machines,
		transport.Options{WrapConn: func(from, to sim.PartyID, conn net.Conn) net.Conn {
			return linkTap{conn, &mesh[from][to]}
		}})
	if err != nil {
		t.Fatal(err)
	}

	unicasts := 0
	for self := sim.PartyID(0); self < n; self++ {
		send, out := stagedFrames(self, n)
		fr := driver.NewFramer(self, n, sid, send)
		for round := 1; round <= res.Rounds; round++ {
			done := true // a corrupted seat always flags done
			if self == corrupted {
				for _, msg := range adv.sent[round-1] {
					if msg.To != sim.Broadcast {
						unicasts++
					}
					fr.Emit(round, msg.To, msg.Payload)
				}
			} else {
				for _, msg := range recs[self].sent[round-1] {
					fr.Emit(round, msg.To, msg.Payload)
				}
				done = recs[self].done[round-1]
			}
			if err := fr.EndRound(round, done); err != nil {
				t.Fatal(err)
			}
			for to := sim.PartyID(0); to < n; to++ {
				if to == self {
					continue
				}
				batch, frames := []byte(nil), len(out[to])
				if frames > 0 {
					batch = out[to][0]
				}
				out[to] = nil
				if frames != 1 || len(mesh[self][to]) < round {
					t.Fatalf("link %d→%d round %d: engine staged %d frames, mesh wrote %d in all",
						self, to, round, frames, len(mesh[self][to]))
				}
				r := wire.NewReader(batch)
				r.Uvarint()
				got, err := wire.Decode(r.Rest()[1:])
				if err != nil {
					t.Fatal(err)
				}
				staged := got.(wire.SessionRound)
				if staged.SID != sid {
					t.Fatalf("link %d→%d round %d: engine frame for session %d", self, to, round, staged.SID)
				}
				staged.SID = 0 // the mesh's links belong to one execution
				if want, _ := wire.Encode(staged); !bytes.Equal(mesh[self][to][round-1], want) {
					t.Errorf("link %d→%d round %d:\n mesh   %x\n engine %x", self, to, round, mesh[self][to][round-1], want)
				}
			}
		}
		for to := sim.PartyID(0); to < n; to++ {
			if to != self && len(mesh[self][to]) != res.Rounds {
				t.Errorf("link %d→%d: mesh wrote %d round frames in %d rounds", self, to, len(mesh[self][to]), res.Rounds)
			}
		}
	}
	if unicasts == 0 {
		t.Error("the adversary sent no unicast: no per-peer frame was compared")
	}
}
