package session

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"treeaa/internal/adversary"
	"treeaa/internal/core"
	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

func (m *mux) openConns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.conns)
}

// TestMuxTracksOnlyLiveConns: the set of connections a mux holds for its
// shutdown is the handshakes in flight and one connection per link — a port
// probe, a hello that fails validation and every dead generation of a
// flapping link leave it where they are closed.
func TestMuxTracksOnlyLiveConns(t *testing.T) {
	const n = 3
	c := startTestCluster(t, n, Options{})
	low, high := c.Daemon(0).mux, c.Daemon(n-1).mux

	for i := 0; i < 500; i++ {
		conn, err := net.Dial("tcp", high.addrs[n-1])
		if err != nil {
			t.Fatal(err)
		}
		garbage := []byte("GET / HTTP/1.1\r\n\r\n") // a length the stream never honours
		if i%2 == 1 {
			garbage = transport.AppendFrame(nil, []byte{transport.FrameMuxHello, 'T', 'A', 'A', 'S'}) // a frame, not a hello
		}
		conn.Write(garbage)
		conn.Close()
	}

	await := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	gen := func(l *peerLink) (int, bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.gen, l.up
	}
	dialed, accepted := low.peers[n-1], high.peers[0]
	for i := 0; i < 20; i++ {
		was, _ := gen(accepted)
		dialed.mu.Lock()
		conn := dialed.conn
		dialed.mu.Unlock()
		conn.Close() // the dialing side's reader fails and redials
		await("the link's replacement", func() bool {
			g, up := gen(accepted)
			_, upLow := gen(dialed)
			return g > was && up && upLow
		})
	}

	for _, m := range []*mux{low, high} {
		await("the rejected and replaced connections to leave the set", func() bool { return m.openConns() <= n-1 })
	}
	resp := submitAndWait(t, c, 0, Spec{Tree: "path:8", T: 0, TTL: time.Minute})
	if !resp.Decided() {
		t.Fatalf("session over the replaced link: state %s (%s)", resp.State, resp.Err)
	}
}

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

// linkTap collects the round frames written on one mesh link.
type linkTap struct {
	net.Conn
	frames *[][]byte
}

func (c linkTap) Write(b []byte) (int, error) {
	if k, rest, err := wire.ConsumeUvarint(b); err == nil && int(k) == len(rest) && rest[0] == transport.FrameMuxSession {
		*c.frames = append(*c.frames, append([]byte(nil), rest[1:]...))
	}
	return c.Conn.Write(b)
}

// TestRoundFrameIdenticalAcrossFabrics: the rounds of one execution — honest
// TreeAA seats, whose every round is all broadcasts, and a splitvote seat,
// whose rounds carry a different vote per peer — put the same SessionRound
// body on every link whether the one-shot mesh ships them (node and adversary
// host) or a session engine does, session id aside. The mesh side is a real
// loopback run with its links tapped; the engine side replays what each seat
// sent, round by round, through what engine.begin builds — a driver.Framer
// staging on the mux — over an unconnected mux.
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
		m := newMux(self, n, make([]string, n), 1, Options{}.withDefaults(), nil, nil, nil)
		for _, l := range m.peers {
			if l != nil {
				l.up = true // no socket: staged frames just collect
			}
		}
		fr := driver.NewFramer(self, n, sid, m.stage)
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
			for to, l := range m.peers {
				if l == nil {
					continue
				}
				batch, frames := l.takeLocked()
				if frames != 1 || len(mesh[self][to]) < round {
					t.Fatalf("link %d→%d round %d: engine staged %d frames, mesh wrote %d in all",
						self, to, round, frames, len(mesh[self][to]))
				}
				_, rest, _ := wire.ConsumeUvarint(batch)
				got, err := wire.Decode(rest[1:])
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
		for to := range m.peers {
			if sim.PartyID(to) != self && len(mesh[self][to]) != res.Rounds {
				t.Errorf("link %d→%d: mesh wrote %d round frames in %d rounds", self, to, len(mesh[self][to]), res.Rounds)
			}
		}
	}
	if unicasts == 0 {
		t.Error("the adversary sent no unicast: no per-peer frame was compared")
	}
}
