package overlay

import (
	"context"
	"fmt"
	"net"

	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// ProcessConfig describes one process's seat in a multi-process tree
// deployment (cmd/node with -overlay). Every seat is honest — the overlay
// rejects adversaries — so unlike transport.ProcessConfig there is no
// corrupted set and no host seat; what matters instead is the party's tree
// position: interior seats (root, sub-leaders) listen on their peers-file
// address, leaves only dial.
type ProcessConfig struct {
	// ID is this process's party.
	ID sim.PartyID
	// N is the total number of parties; Addrs has one listen address per
	// party id, shared verbatim by every process. Leaf addresses are carried
	// for uniformity but never dialed.
	N     int
	Addrs []string
	// Machine is this party's protocol machine.
	Machine   sim.Machine
	MaxRounds int
	// Session must be identical across all processes of one deployment;
	// transport.DeriveSession computes one from the shared parameters — the
	// overlay spec must be among them, so a mixed mesh/tree fleet (or two
	// branching factors) refuses to pair at the handshake.
	Session uint64
	Opts    Options
	// Ctx, when non-nil, cancels the seat: on Done the current node shuts
	// down, which unblocks its barrier wait and read loops, so a SIGINT'd
	// daemon exits promptly.
	Ctx context.Context
}

// RunProcess executes this process's seat over the tree overlay and blocks
// until the deployment terminates or fails. The seat supervises itself
// across injected crashes (Opts.CrashPlan naming this ID), keeping its
// listen address stable across incarnations just like the mesh daemon.
func RunProcess(cfg ProcessConfig) (*transport.ProcessResult, error) {
	if cfg.N <= 0 || len(cfg.Addrs) != cfg.N {
		return nil, fmt.Errorf("overlay: %d addresses for n = %d", len(cfg.Addrs), cfg.N)
	}
	if cfg.MaxRounds <= 0 {
		return nil, fmt.Errorf("overlay: MaxRounds = %d, want > 0", cfg.MaxRounds)
	}
	if cfg.ID < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("overlay: party id %d out of range [0, %d)", cfg.ID, cfg.N)
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("overlay: party %d needs a machine", cfg.ID)
	}
	opts := cfg.Opts.withDefaults()
	lay, err := NewLayout(cfg.N, opts.Branching)
	if err != nil {
		return nil, err
	}
	if _, crashes := opts.CrashPlan[cfg.ID]; crashes && opts.Restart == nil {
		return nil, fmt.Errorf("overlay: crash plan requires Options.Restart to rebuild machines")
	}

	hold := &holder{}
	nd := newNode(cfg.ID, lay, cfg.Machine, cfg.MaxRounds, cfg.Session, cfg.Addrs, opts)
	nd.crashRound = opts.CrashPlan[cfg.ID]
	hold.set(nd)
	if lay.Interior(cfg.ID) {
		ln, err := net.Listen("tcp", cfg.Addrs[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("overlay: party %d listening on %s: %w", cfg.ID, cfg.Addrs[cfg.ID], err)
		}
		h := newHost(cfg.ID, ln, lay, cfg.Session, opts, hold)
		go h.loop()
		defer h.close()
		defer transport.WatchCancel(cfg.Ctx, func() {
			h.close()
			if nd := hold.get(); nd != nil {
				nd.shutdown(false)
			}
		})()
	} else {
		defer transport.WatchCancel(cfg.Ctx, func() {
			if nd := hold.get(); nd != nil {
				nd.shutdown(false)
			}
		})()
	}

	res, err := supervise(nd, hold)
	if err != nil {
		return nil, err
	}
	return transport.NewProcessResult(res), nil
}
