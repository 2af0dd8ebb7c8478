package driver

import (
	"fmt"

	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// A link of a full-mesh fabric — the one-shot mesh and the serving mux alike
// — carries one thing per lock-step round: everything the sender has for
// that peer in the round, and the fact that this is all of it. On the wire
// that is
//
//	uvarint(len) | frameTag | wire.SessionRound body
//
// with the round's k leaf payloads in emission order and the sender's
// end-of-round mark in the flags. An event-driven seat has no rounds to
// gather by: it ships k = 1 per message, and one empty done-marked frame as
// its decision announcement. Framer writes that form and Apply reads it; a
// fabric is left with moving frames between authenticated peers.

// frameTag is the stream-envelope tag a round frame travels under. It is
// transport.FrameMuxSession, spelled out because transport imports this
// package; both fabrics' readers accept no other tag for a round.
const frameTag byte = 0x06

// Framer is the Sink and the EventSink of a seat on a full-mesh fabric: it
// turns the driver's sends into round frames and hands them to send, with to
// a party id or sim.Broadcast for every peer. The frame buffer is reused, so
// send must copy what it keeps. A Framer is owned by whoever steps the
// driver; it takes no locks and, once its buffers have grown, allocates
// nothing.
type Framer struct {
	id   sim.PartyID
	n    int
	sid  uint64
	send func(to sim.PartyID, frame []byte)

	// out is what the machine has emitted in the round being stepped, payload
	// by payload with its recipient, until EndRound frames it; unicast
	// records that some recipient was not sim.Broadcast.
	out     []any
	outTo   []sim.PartyID
	unicast bool
	share   []any // one peer's share of a unicast-bearing round
	buf     []byte
}

// NewFramer returns the framer of party id of n. sid scopes the frames where
// a link carries many executions (the serving mux); a fabric whose links
// belong to one execution passes 0.
func NewFramer(id sim.PartyID, n int, sid uint64, send func(to sim.PartyID, frame []byte)) *Framer {
	return &Framer{id: id, n: n, sid: sid, send: send}
}

// Emit holds one message of the round being stepped for the frame EndRound
// builds.
func (f *Framer) Emit(round int, to sim.PartyID, payload any) error {
	if to == f.id {
		return nil
	}
	f.out, f.outTo = append(f.out, payload), append(f.outTo, to)
	f.unicast = f.unicast || to != sim.Broadcast
	return nil
}

// EndRound ships the round: to each peer one frame holding what the machine
// sent it and this seat's share of the barrier. When everything was a
// broadcast — every TreeAA round — the peers' frames are the same bytes,
// encoded once.
func (f *Framer) EndRound(round int, done bool) error {
	fr := wire.SessionRound{SID: f.sid, Round: round, Done: done, Payloads: f.out}
	var err error
	if !f.unicast {
		err = f.ship(sim.Broadcast, fr)
	} else {
		for p := sim.PartyID(0); int(p) < f.n && err == nil; p++ {
			if p == f.id {
				continue
			}
			fr.Payloads = f.share[:0]
			for i, to := range f.outTo {
				if to == p || to == sim.Broadcast {
					fr.Payloads = append(fr.Payloads, f.out[i])
				}
			}
			f.share = fr.Payloads
			err = f.ship(p, fr)
		}
		clear(f.share)
	}
	clear(f.out)
	f.out, f.outTo, f.unicast = f.out[:0], f.outTo[:0], false
	return err
}

// Send ships one message of an event-driven seat at once, a frame of one;
// its round field carries the machine's EnvelopeRound.
func (f *Framer) Send(round int, to sim.PartyID, payload any) error {
	if to == f.id {
		return nil
	}
	f.out = append(f.out[:0], payload)
	return f.ship(to, wire.SessionRound{SID: f.sid, Round: round, Payloads: f.out})
}

// Announce broadcasts an event-driven seat's decision announcement, its one
// empty done-marked frame.
func (f *Framer) Announce() error {
	return f.ship(sim.Broadcast, wire.SessionRound{SID: f.sid, Round: 1, Done: true})
}

func (f *Framer) ship(to sim.PartyID, fr wire.SessionRound) error {
	buf := wire.AppendUvarint(f.buf[:0], uint64(fr.Size()+1))
	buf, err := wire.AppendSessionRound(append(buf, frameTag), fr)
	if err != nil {
		return err
	}
	f.buf = buf
	f.send(to, buf)
	return nil
}

// PeekFrame reads the header of a round frame's body: the round it belongs
// to, and whether it is an announcement — empty and done-marked, the frame an
// event-driven seat announces its decision with.
func PeekFrame(body []byte) (round int, announce, ok bool) {
	fr, err := wire.ReadSessionRound(body)
	return fr.Round, fr.Done && fr.Len() == 0, err == nil
}

// stream reads one round frame's body, envelope stripped, handing leaf each
// of its k payloads in order.
func stream(from sim.PartyID, body []byte, leaf func(round int, payload any) error) (fr wire.SessionRoundReader, k int, err error) {
	if fr, err = wire.ReadSessionRound(body); err != nil {
		return fr, 0, fmt.Errorf("frame from party %d: %v", from, err)
	}
	k = fr.Len()
	for {
		payload, ok, err := fr.Next()
		if err != nil {
			return fr, k, fmt.Errorf("frame from party %d: %v", from, err)
		}
		if !ok {
			return fr, k, nil
		}
		if err := leaf(fr.Round, payload); err != nil {
			return fr, k, err
		}
	}
}

// Apply files one round frame from a peer: its messages, addressed to party
// to, under the frame's round, then the peer's mark. A frame that fails part
// way leaves its round without the mark, so no barrier completes on it.
// Window violations, duplicate marks and foreign payloads are errors: links
// are authenticated, so they are bugs, not noise.
func (b *Mailbox) Apply(from, to sim.PartyID, body []byte) error {
	fr, _, err := stream(from, body, func(round int, payload any) error {
		return b.File(sim.Message{From: from, To: to, Round: round, Payload: payload})
	})
	if err != nil {
		return err
	}
	return b.EOR(fr.Round, from, fr.Done)
}

// Apply files one round frame from a peer; see Mailbox.Apply.
func (r *Round) Apply(from sim.PartyID, body []byte) error { return r.box.Apply(from, r.id, body) }

// Apply delivers one frame from a peer: each payload on arrival, then the
// peer's announcement if the frame is done-marked.
func (e *Event) Apply(from sim.PartyID, body []byte) error {
	fr, k, err := stream(from, body, func(_ int, payload any) error { return e.Deliver(from, payload) })
	switch {
	case err != nil:
		return err
	case fr.Done:
		return e.PeerDone(from, true)
	case k == 0:
		return fmt.Errorf("empty frame from party %d announces nothing", from)
	}
	return nil
}
