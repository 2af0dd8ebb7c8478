package transport

import (
	"fmt"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
)

// hostConfig drives all corrupted parties — and the adversary controlling
// them — inside one process. The simulator's adversary is a *global*
// entity: rushing (it sees every honest round-r message before sending its
// own) and coordinated (one Step speaks for all corrupted parties). Neither
// power distributes, so the TCP substrate hosts the whole corrupted set on
// one endpoint and reconstructs the global view from two sources: mirror
// frames (honest traffic, granted by the honest nodes to the observer) and
// the corrupted parties' own inboxes.
type hostConfig struct {
	corrupted []sim.PartyID // ascending, deduplicated
	n         int
	maxRounds int
	adv       sim.Adversary
	ep        *endpoint
}

// runAdversaryHost mirrors the engine's adversary path round by round:
// wait until the observer holds all honest round-r traffic (mirrors are
// complete once each honest party's round-r frame arrives) and every
// corrupted inbox for round r-1 is complete, rebuild honestOut and
// corruptInbox exactly as the engine lays them out, run one Adversary.Step,
// and route the returned messages through the corrupted parties'
// authenticated links, a round frame per link like anybody's. Corrupted
// parties always flag done in their frames, so honest termination is
// untouched by the adversary's presence.
func runAdversaryHost(cfg hostConfig) (*driver.Result, error) {
	e := cfg.ep
	if err := e.start(); err != nil {
		return nil, err
	}
	defer e.shutdown(false)

	observer := cfg.corrupted[0]
	isCorrupted := make(map[sim.PartyID]bool, len(cfg.corrupted))
	for _, c := range cfg.corrupted {
		isCorrupted[c] = true
	}
	honest := make([]sim.PartyID, 0, cfg.n-len(cfg.corrupted))
	for p := sim.PartyID(0); int(p) < cfg.n; p++ {
		if !isCorrupted[p] {
			honest = append(honest, p)
		}
	}
	if len(honest) == 0 {
		return nil, fmt.Errorf("transport: no honest parties to host an adversary against")
	}

	h := &hostState{
		cfg:      cfg,
		observer: observer,
		honest:   honest,
		states:   make(map[sim.PartyID]*driver.Mailbox, len(cfg.corrupted)),
		mirrors:  make(map[int]map[sim.PartyID][]sim.Message),
		fail:     make(map[sim.PartyID]error),
	}
	framers := make(map[sim.PartyID]*driver.Framer, len(cfg.corrupted))
	for _, c := range cfg.corrupted {
		h.states[c] = driver.NewMailbox(cfg.n, 0)
		framers[c] = driver.NewFramer(c, cfg.n, 0, func(to sim.PartyID, frame []byte) {
			e.ship(c, to, frame, nil) // honest recipients only: the rest are local
		})
	}
	res := &driver.Result{ID: observer}
	corruptInbox := make(map[sim.PartyID][]sim.Message, len(cfg.corrupted))

	for r := 1; r <= cfg.maxRounds; r++ {
		if err := h.await(r); err != nil {
			return nil, err
		}

		// honestOut: expanded honest traffic concatenated by ascending
		// sender, each sender's messages in emission order — the mirror
		// stream preserves exactly the engine's honestOut layout.
		var honestOut []sim.Message
		for _, p := range honest {
			honestOut = append(honestOut, h.mirrors[r][p]...)
		}
		for _, c := range cfg.corrupted {
			corruptInbox[c] = h.states[c].Inbox(r-1, corruptInbox[c][:0])
		}

		msgs, more := cfg.adv.Step(r, honestOut, corruptInbox)
		if len(more) > 0 {
			return nil, fmt.Errorf("transport: adversary corrupted %v adaptively at round %d; "+
				"adaptive corruption cannot retract messages already on the wire — use the in-process transport", more, r)
		}

		var sent driver.Tally
		for _, raw := range msgs {
			if !isCorrupted[raw.From] {
				return nil, fmt.Errorf("%w: message from party %d at round %d", sim.ErrForgedSender, raw.From, r)
			}
			first, last, err := sent.Charge(cfg.n, raw.To, raw.Payload)
			if err != nil {
				return nil, fmt.Errorf("transport: adversary %w", err)
			}
			for to := first; to <= last; to++ {
				if isCorrupted[to] {
					// Intra-host delivery: corrupted parties share the
					// process, so their pairwise links never leave it.
					err = h.states[to].File(sim.Message{From: raw.From, To: to, Round: r, Payload: raw.Payload})
					if err != nil {
						return nil, fmt.Errorf("transport: adversary host: %w", err)
					}
				}
			}
			if raw.To == sim.Broadcast || !isCorrupted[raw.To] {
				_ = framers[raw.From].Emit(r, raw.To, raw.Payload) // buffers; EndRound reports what cannot be framed
			}
		}
		res.PerRound = append(res.PerRound, sent)

		for _, c := range cfg.corrupted {
			if err := framers[c].EndRound(r, true); err != nil {
				return nil, fmt.Errorf("transport: adversary round %d: %w", r, err)
			}
		}
		for r2 := range h.mirrors {
			if r2 <= r {
				delete(h.mirrors, r2)
			}
		}
		for _, c := range cfg.corrupted {
			h.states[c].Retire(r - 1)
		}

		if _, dones := h.states[observer].Barrier(r); dones == len(honest) {
			res.TermRound = r
			e.shutdown(true)
			return res, nil
		}
	}
	return nil, fmt.Errorf("%w: adversary host after %d rounds", sim.ErrNotDone, cfg.maxRounds)
}

// hostState is the event-filing side of the adversary host.
type hostState struct {
	cfg      hostConfig
	observer sim.PartyID
	honest   []sim.PartyID
	states   map[sim.PartyID]*driver.Mailbox       // per corrupted party
	mirrors  map[int]map[sim.PartyID][]sim.Message // round → honest sender → expanded traffic
	fail     map[sim.PartyID]error                 // first connection failure per peer
}

// barrierDone reports whether corrupted party c holds round r's frame from
// every honest party — the only senders of frames a co-hosted party has.
func (h *hostState) barrierDone(c sim.PartyID, r int) bool {
	eors, _ := h.states[c].Barrier(r)
	return eors == len(h.honest)
}

// ready reports whether the adversary can step round r: the observer holds
// round r's frame from every honest party (so round r's mirrors, which
// precede it on the link, are complete) and every corrupted inbox for round
// r-1 is complete (round r-1's frame from every honest peer; intra-host
// deliveries are synchronous and need no barrier).
func (h *hostState) ready(r int) bool {
	if !h.barrierDone(h.observer, r) {
		return false
	}
	if r == 1 {
		return true
	}
	for _, c := range h.cfg.corrupted {
		if !h.barrierDone(c, r-1) {
			return false
		}
	}
	return true
}

func (h *hostState) await(r int) error {
	e := h.cfg.ep
	timeout := time.NewTimer(e.opts.RoundTimeout)
	defer timeout.Stop()
	for !h.ready(r) {
		select {
		case ev := <-e.events:
			if err := h.handle(ev); err != nil {
				return fmt.Errorf("transport: adversary host: %w", err)
			}
			// Only a failed peer that still owes the observer round r stalls us.
			for _, p := range h.honest {
				if err := h.fail[p]; err != nil && !h.states[h.observer].HasEOR(r, p) {
					return fmt.Errorf("transport: adversary host waiting on round %d: %w", r, err)
				}
			}
		case <-timeout.C:
			return fmt.Errorf("transport: adversary host: round %d barrier timed out after %v", r, e.opts.RoundTimeout)
		case <-e.quit:
			return fmt.Errorf("transport: adversary host: endpoint closed while waiting on round %d", r)
		}
	}
	return nil
}

func (h *hostState) handle(ev event) error {
	if ev.err != nil {
		if _, seen := h.fail[ev.from]; !seen {
			h.fail[ev.from] = ev.err
		}
		return nil
	}
	switch ev.body[0] {
	case FrameMuxSession:
		return h.states[ev.owner].Apply(ev.from, ev.owner, ev.body[1:])
	case frameMirror:
		if ev.owner != h.observer {
			return fmt.Errorf("mirror frame addressed to party %d, observer is %d", ev.owner, h.observer)
		}
		m, err := parseMirror(ev.from, ev.body)
		if err != nil {
			return err
		}
		box := h.mirrors[m.Round]
		if box == nil {
			box = make(map[sim.PartyID][]sim.Message, len(h.honest))
			h.mirrors[m.Round] = box
		}
		box[ev.from] = append(box[ev.from], m)
		return nil
	default:
		return fmt.Errorf("unexpected frame type 0x%02x from party %d", ev.body[0], ev.from)
	}
}
