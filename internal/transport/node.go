package transport

import (
	"fmt"
	"time"

	"treeaa/internal/driver"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// nodeConfig drives one honest party over an endpoint.
type nodeConfig struct {
	id        sim.PartyID
	n         int
	maxRounds int
	// observer, when ≥ 0, is the corrupted party every expanded send is
	// mirrored to. It emulates the model's *rushing* adversary, which sees
	// all honest round-r traffic before choosing its own: on a real network
	// nobody gets that view for free, so the honest nodes grant it
	// explicitly to the adversary host's observer party.
	observer sim.PartyID
	machine  sim.Machine
	ep       *endpoint
	// crashRound, when > 0, injects a crash: the node dies abruptly in that
	// round, after its protocol sends but before its barrier, and returns
	// errCrashed for superviseNode to catch.
	crashRound int
}

// meshNode adapts a driver.Round to the full mesh: frameMsg/frameMirror
// framing, an eor frame to each of the n-1 peers as the barrier signal, and
// the per-peer connection failures a stalled barrier is blamed on.
type meshNode struct {
	nodeConfig
	rd    *driver.Round
	peers []sim.PartyID
	fail  map[sim.PartyID]error // first connection failure per peer
}

// runNode executes one honest machine in lock step with its peers. The
// window is unbounded: a crash-restarted party is handed its peers' whole
// frame history at once.
func runNode(cfg nodeConfig) (*driver.Result, error) {
	e := cfg.ep
	if err := e.start(); err != nil {
		return nil, err
	}
	defer e.shutdown(false)

	nd := &meshNode{nodeConfig: cfg, fail: make(map[sim.PartyID]error)}
	nd.rd = driver.NewRound(cfg.id, cfg.n, cfg.maxRounds, 0, cfg.machine, nd)
	for p := sim.PartyID(0); int(p) < cfg.n; p++ {
		if p != cfg.id {
			nd.peers = append(nd.peers, p)
		}
	}
	for {
		roundStart := time.Now()
		finished, err := nd.rd.Advance()
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		if finished {
			e.shutdown(true)
			return nd.rd.Result(), nil
		}
		if err := nd.awaitBarrier(); err != nil {
			return nil, err
		}
		if c := e.opts.Chaos; c != nil {
			c.AddRoundLatency(time.Since(roundStart))
		}
	}
}

// Emit encodes the payload once and sends one msg frame per remote
// recipient, plus one mirror frame per recipient (self included) when a
// rushing observer is configured.
func (nd *meshNode) Emit(round int, to sim.PartyID, payload any) error {
	body, err := wire.Encode(payload)
	if err != nil {
		return err
	}
	first, last := driver.Span(nd.n, to)
	for to := first; to <= last; to++ {
		if to != nd.id {
			nd.ep.send(nd.id, to, encodeMsg(frameMsg, round, to, body))
		}
		if nd.observer >= 0 {
			nd.ep.send(nd.id, nd.observer, encodeMsg(frameMirror, round, to, body))
		}
	}
	return nil
}

func (nd *meshNode) EndRound(round int, done bool) error {
	if round == nd.crashRound {
		// Injected crash: die mid-round, protocol sends out (possibly
		// partially flushed) but the eor barrier never sent. Peers stall
		// at their round-r barriers until the supervisor restarts us.
		nd.ep.shutdown(false)
		return fmt.Errorf("%w: party %d at round %d", errCrashed, nd.id, round)
	}
	eor := encodeEOR(round, done)
	for _, p := range nd.peers {
		nd.ep.send(nd.id, p, eor)
	}
	return nil
}

// awaitBarrier consumes events until eor(r) has arrived from every peer,
// filing message frames into their rounds as they pass by. Mirror frames
// are rejected — only the adversary host's observer accepts them.
func (nd *meshNode) awaitBarrier() error {
	e, r := nd.ep, nd.rd.Round()
	timeout := time.NewTimer(e.opts.RoundTimeout)
	defer timeout.Stop()
	for !nd.rd.Ready() {
		select {
		case ev := <-e.events:
			if err := nd.handle(ev); err != nil {
				return fmt.Errorf("transport: party %d: %w", nd.id, err)
			}
			// A failed peer that still owes eor(r) stalls the barrier for good.
			// Failures of peers that already delivered it are benign — a
			// terminated peer closes its connections while slower parties are
			// still deciding.
			for _, p := range nd.peers {
				if err := nd.fail[p]; err != nil && !nd.rd.HasEOR(p) {
					return fmt.Errorf("transport: party %d waiting on round %d: %w", nd.id, r, err)
				}
			}
		case <-timeout.C:
			return fmt.Errorf("transport: party %d: round %d barrier timed out after %v", nd.id, r, e.opts.RoundTimeout)
		case <-e.quit:
			// Shutdown (deployment abort or context cancellation) while
			// blocked: exit promptly instead of riding out the round timeout.
			return fmt.Errorf("transport: party %d: endpoint closed while waiting on round %d", nd.id, r)
		}
	}
	return nil
}

func (nd *meshNode) handle(ev event) error {
	if ev.err != nil {
		if _, seen := nd.fail[ev.from]; !seen {
			nd.fail[ev.from] = ev.err
		}
		return nil
	}
	switch ev.f.typ {
	case frameMsg:
		return nd.rd.File(sim.Message{From: ev.from, To: ev.owner, Round: ev.f.round, Payload: ev.f.payload})
	case frameEOR:
		return nd.rd.EOR(ev.f.round, ev.from, ev.f.done)
	case frameMirror:
		return fmt.Errorf("unexpected mirror frame from party %d (not an observer)", ev.from)
	default:
		return fmt.Errorf("unexpected frame type 0x%02x from party %d", ev.f.typ, ev.from)
	}
}
