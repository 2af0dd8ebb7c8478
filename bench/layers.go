package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/journal"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// recorder observes one machine from outside: it forwards Step and keeps a
// copy of every message the machine emits, stamped with sender and round as
// the network would stamp it. The execution is unchanged.
type recorder struct {
	sim.Machine
	id  sim.PartyID
	log *[]sim.Message
}

func (r recorder) Step(round int, inbox []sim.Message) []sim.Message {
	out := r.Machine.Step(round, inbox)
	for _, m := range out {
		m.From, m.Round = r.id, round
		*r.log = append(*r.log, m)
	}
	return out
}

// replayOpts says which of an operation's layer work an isolated replay
// repeats, beyond parsing, building machines and running them.
type replayOpts struct {
	space  *cli.Space // the program's parsed space; nil = it parses per operation
	parses int        // parses per operation (one per daemon in a service)
	// session wraps every payload as the serving layer does (wire.SessionMsg
	// under a mux frame tag) and adds the per-seat end-of-round frames.
	session bool
	// journal, when set, receives what a full-level journal would log for
	// the operation: n admissions, every inbound frame, one committed seal.
	journal *journal.Writer
}

// replayed is what one isolated replay counted.
type replayed struct {
	run       *syncRun
	frames    int // frames delivered to remote parties: each is framed, read and decoded once
	wireBytes int // bytes of those frames
}

// replayOp repeats one operation's layer work in isolation, single-threaded
// and off the serving path, with a span per layer under parent:
// cli.parse, core.machines, sim.run, wire.encode, wire.decode,
// transport.frame and (with a journal) journal.append, journal.commit.
func replayOp(tr *tracer, parent, req int, op opSpec, o replayOpts) (*replayed, error) {
	run, err := runSync(tr, parent, req, op, o.space, o.parses, true, nil)
	if err != nil {
		return nil, err
	}
	rp := &replayed{run: run}

	// A second, untimed run with recorders yields every message the
	// machines emitted; the timed run above stays unobserved.
	var log []sim.Message
	capture := tr.start(parent, req, "bench.capture")
	_, err = runSync(nil, 0, 0, op, run.space, 1, false, func(ms []sim.Machine) []sim.Machine {
		for i := range ms {
			ms[i] = recorder{ms[i], sim.PartyID(i), &log}
		}
		return ms
	})
	tr.end(capture)
	if err != nil {
		return nil, err
	}

	// wire.encode: one encode per emitted message — a broadcast is encoded
	// once and the same bytes go to every peer — into one growing buffer,
	// as the engines reuse a scratch buffer.
	sid := uint64(req + 1)
	var (
		buf    []byte
		ends   []int
		fanout []int // remote recipients of each body
	)
	tr.in(parent, req, "wire.encode", func() {
		for _, m := range log {
			var payload any = m.Payload
			if o.session {
				payload = wire.SessionMsg{SID: sid, Round: m.Round, Payload: m.Payload}
			}
			buf = append(buf, transport.FrameMuxSession)
			if buf, err = wire.Append(buf, payload); err != nil {
				return
			}
			ends = append(ends, len(buf))
			switch m.To {
			case sim.Broadcast:
				fanout = append(fanout, op.N-1)
			case m.From:
				fanout = append(fanout, 0)
			default:
				fanout = append(fanout, 1)
			}
		}
		if !o.session {
			return
		}
		for r := 1; r <= run.res.Rounds; r++ {
			for seat := 0; seat < op.N; seat++ {
				buf = append(buf, transport.FrameMuxSession)
				if buf, err = wire.Append(buf, wire.SessionEOR{SID: sid, Round: r}); err != nil {
					return
				}
				ends = append(ends, len(buf))
				fanout = append(fanout, op.N-1)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("wire.encode: %w", err)
	}
	bodies := make([][]byte, len(ends))
	for i, start := 0, 0; i < len(ends); i++ {
		bodies[i], start = buf[start:ends[i]], ends[i]
		rp.frames += fanout[i]
		rp.wireBytes += fanout[i] * len(bodies[i])
	}

	// wire.decode: every remote recipient routes (peek) and decodes its copy.
	tr.in(parent, req, "wire.decode", func() {
		for i, body := range bodies {
			for k := 0; k < fanout[i] && err == nil; k++ {
				if o.session {
					if _, _, err = wire.PeekSession(body[1:]); err != nil {
						return
					}
				}
				_, err = wire.Decode(body[1:])
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("wire.decode: %w", err)
	}

	// transport.frame: length-prefix every delivered copy onto a stream, then
	// read the stream back frame by frame through the arena reader.
	tr.in(parent, req, "transport.frame", func() {
		stream := make([]byte, 0, rp.wireBytes+4*rp.frames)
		for i, body := range bodies {
			for k := 0; k < fanout[i]; k++ {
				stream = transport.AppendFrame(stream, body)
			}
		}
		br, arena := bufio.NewReader(bytes.NewReader(stream)), &transport.ReadArena{}
		for {
			if _, err = transport.ReadFrameArena(br, arena); err != nil {
				break
			}
		}
		if errors.Is(err, io.EOF) {
			err = nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("transport.frame: %w", err)
	}

	if o.journal == nil {
		return rp, nil
	}
	tr.in(parent, req, "journal.append", func() {
		for seat := 0; seat < op.N && err == nil; seat++ {
			err = o.journal.Append(wire.JournalOpen{SID: sid, Tree: op.Space, Seed: op.Seed, T: op.T,
				Inputs: op.Inputs, TTLMillis: 120_000, DeadlineUnixNano: time.Now().UnixNano()})
		}
		for i, body := range bodies {
			from := sim.PartyID(0)
			if i < len(log) {
				from = log[i].From
			}
			for k := 0; k < fanout[i] && err == nil; k++ {
				err = o.journal.Append(wire.JournalFrame{From: from, Body: body[1:]})
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("journal.append: %w", err)
	}
	tr.in(parent, req, "journal.commit", func() {
		var ticket <-chan struct{}
		if ticket, err = o.journal.Commit(wire.JournalSeal{SID: sid, State: 2}); err != nil {
			return
		}
		<-ticket
		err = o.journal.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("journal.commit: %w", err)
	}
	return rp, nil
}

// replayReps is how many times each sampled operation is replayed back to
// back. A single replay runs on cold caches, which the serving path — the
// same code on the same shapes, thousands of times a second — never does.
const replayReps = 3

// replayWarm replays the i-th sampled operation replayReps times, each under
// its own "replay" root span and request number, and returns the last.
func replayWarm(rtr *tracer, i int, op opSpec, o replayOpts) (rp *replayed, err error) {
	for rep := 0; rep < replayReps; rep++ {
		req := i*replayReps + rep
		root := rtr.start(0, req, "replay")
		rp, err = replayOp(rtr, root, req, op, o)
		rtr.end(root)
		if err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// replayJournal times journal.Replay over dir and returns the records seen.
func replayJournal(dir string) (records int, took time.Duration, err error) {
	t0 := time.Now()
	err = journal.Replay(dir, nil, func(any) error { records++; return nil })
	return records, time.Since(t0), err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// sampleOps picks up to k operations spread evenly over ops.
func sampleOps(ops []opSpec, k int) []opSpec {
	if len(ops) <= k {
		return ops
	}
	out := make([]opSpec, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, ops[i*len(ops)/k])
	}
	return out
}
