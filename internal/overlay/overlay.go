// Package overlay routes protocol traffic over a deterministic three-level
// communication tree — root, sub-leaders, leaves — instead of the transport
// package's full mesh. It is an in-process substrate that the benchmark's
// overlay-fleet workload runs (Cluster on loopback); no binary deploys it.
// Every message crosses interior relays that the overlay trusts completely,
// which is outside the paper's model of authenticated point-to-point links,
// so Cluster refuses every adversary but omission.
//
// The mesh needs a duplex connection per party pair — n(n−1)/2 in all, n−1
// at every party — so past n ≈ 256 the file-descriptor budget, not the
// protocol, is the wall; the tree keeps every node at O(branching)
// connections and replaces the n·(n−1) per-round end-of-round barrier
// frames with ~2n aggregated ones.
//
// The overlay is a delivery substrate, not a protocol change: every logical
// message a machine emits is wrapped in a wire.RelayMsg envelope stamped
// with (origin, per-origin sequence number, round) and flooded along the
// tree edges. Receivers accept each origin's envelopes strictly in sequence
// order — a duplicate (seq ≤ watermark) is dropped without forwarding, which
// makes the flood idempotent; a gap is a protocol bug and fails the node.
// Only the addressed party (everyone, for a broadcast) decodes the body.
// Because tree paths are unique and links are FIFO, per-origin delivery
// order matches emission order, exactly the property the mesh transport gets
// from per-pair connections — so a relayed run's Result is byte-for-byte
// the Result of sim.Run on the same inputs, pinned by the equivalence tests.
//
// The lock-step barrier aggregates instead of meshing: when a node finishes
// its round-r sends it sets its bit in a cumulative arrived/done bitmap and
// sends it up; interior nodes merge children's bitmaps into their own and
// forward growth. The root releases round r by flooding a down frame once
// every party's bit arrived. Link FIFO makes the release sound: a bit only
// travels behind the frames it accounts for, so by the time a down frame
// passes a link, every round-r envelope already has.
//
// Every link handshake — initial connect, failover re-home — exchanges
// per-origin watermarks and both sides replay what the other lacks. That one
// mechanism heals late joiners and re-homed leaves alike: a leaf whose
// sub-leader stalls re-homes to the next sub-leader in the ring (root as
// last resort, ByzCoinX-style) and pulls the frames the stall stranded, so a
// slow or unreachable interior node degrades latency, not correctness.
package overlay

import (
	"time"

	"treeaa/internal/metrics"
)

// roundTimeout bounds one round's traffic: barrier waits, reads, writes,
// and a full failover search.
const roundTimeout = 60 * time.Second

// Options tunes the tree overlay. The zero value gets sane defaults and an
// automatic branching factor (≈ √(n−1), which balances root and sub-leader
// degrees).
type Options struct {
	// Branching is the number of sub-leaders (and the target number of
	// leaves per sub-leader); 0 picks ≈ √(n−1) automatically.
	Branching int
	// SetupTimeout bounds the initial parent dial and handshake. Default 10s.
	SetupTimeout time.Duration
	// FailoverTimeout is how long a leaf lets its sub-leader stall a barrier
	// (no parent-link traffic at all) before abandoning it for the next
	// candidate; it is also the per-candidate dial budget during a failover
	// search. Default 5s.
	FailoverTimeout time.Duration

	// Stats, when non-nil, receives overlay counters (relays, dedup drops,
	// failovers, peak connection counts, round latency).
	Stats *metrics.OverlayStats
	// Wire, when non-nil, receives physical frame and byte counts, the same
	// accounting the mesh transport reports — the number bench/ compares
	// across substrates (mesh-fleet vs overlay-fleet).
	Wire *metrics.WireStats
}

func (o Options) withDefaults() Options {
	if o.SetupTimeout <= 0 {
		o.SetupTimeout = 10 * time.Second
	}
	if o.FailoverTimeout <= 0 {
		o.FailoverTimeout = 5 * time.Second
	}
	if o.Stats == nil {
		o.Stats = &metrics.OverlayStats{}
	}
	if o.Wire == nil {
		o.Wire = &metrics.WireStats{}
	}
	return o
}
