package overlay

import (
	"errors"
	"fmt"
	"net"

	"treeaa/internal/transport"
)

// The two capabilities the relay fabric lacks, refused by RunProcess and
// Cluster alike.
var (
	// A rushing observer must see every honest round-r message before
	// choosing its own; a tree would have to route all traffic through the
	// observer's position.
	errAdversary = errors.New("overlay: a rushing adversary observes all honest traffic before sending; " +
		"only the full mesh grants that view — use the tcp transport or the in-process engine")
	errEventMachine = errors.New("overlay: the tree relays round-batched traffic and aggregates eor " +
		"barriers, which an event machine does not have — run event-driven seats over the full mesh")
)

// RunProcess executes one process's seat (cmd/node with -overlay) over the
// tree overlay and blocks until the deployment terminates or fails. What
// matters beyond the seat's identity is its tree position: interior seats
// (root, sub-leaders) listen on their peers-file address, leaves only dial —
// leaf addresses are carried for uniformity but never dialed. The seat's
// Session must cover the overlay spec, so a mixed mesh/tree fleet (or two
// branching factors) refuses to pair at the handshake. An omission seat's
// machine comes wrapped in sim.Omit, as on the mesh.
func RunProcess(seat transport.Seat, opts Options) (*transport.ProcessResult, error) {
	if err := seat.Validate(); err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}
	if seat.Adversary != nil || len(seat.Corrupted) > 0 {
		return nil, errAdversary
	}
	if seat.Event != nil {
		return nil, errEventMachine
	}
	opts = opts.withDefaults()
	lay, err := NewLayout(seat.N, opts.Branching)
	if err != nil {
		return nil, err
	}

	nd := newNode(seat.ID, lay, seat.Machine, seat.MaxRounds, seat.Session, seat.Addrs, opts)
	stop := func() { nd.shutdown(false) }
	if lay.Interior(seat.ID) {
		ln, err := net.Listen("tcp", seat.Addrs[seat.ID])
		if err != nil {
			return nil, fmt.Errorf("overlay: party %d listening on %s: %w", seat.ID, seat.Addrs[seat.ID], err)
		}
		host := transport.NewAcceptHost(ln, nd.accept)
		stop = func() { host.Close(); nd.shutdown(false) }
	}
	defer stop()
	defer transport.WatchCancel(seat.Ctx, stop)()

	res, err := nd.run()
	if err != nil {
		return nil, err
	}
	return transport.NewProcessResult(res), nil
}
