package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// OverlayStats counts what the communication-tree overlay (internal/overlay)
// did to move one execution's traffic: relay envelopes put on tree links
// (first hops and forwards alike), the replay work of link handshakes, the
// dedup filter that makes flooding idempotent, aggregated end-of-round
// control frames, and the failover path. PeakConns tracks the largest
// simultaneous link count any node held — the number that stays O(branching)
// where the mesh's is O(n). All counters are atomic; one OverlayStats may be
// shared by every node of a cluster.
type OverlayStats struct {
	Relayed      atomic.Int64 // relay envelopes enqueued on links (origins + forwards)
	RelayBytes   atomic.Int64 // encoded envelope bytes across those enqueues
	Delivered    atomic.Int64 // relay envelopes accepted (first copy per origin seq)
	DedupDropped atomic.Int64 // duplicate relay envelopes dropped by the seq watermark
	Replayed     atomic.Int64 // frames retransmitted during link handshakes
	EORUp        atomic.Int64 // cumulative up-aggregation frames sent
	EORDown      atomic.Int64 // root release frames sent or forwarded
	Failovers    atomic.Int64 // successful re-homes to a new parent
	Batches      atomic.Int64 // physical writes (one flush each) across links

	peakConns atomic.Int64
	roundLat  sample // per completed round, across parties
}

// TrackConns records a node's current link count, keeping the maximum.
func (o *OverlayStats) TrackConns(n int) {
	for {
		cur := o.peakConns.Load()
		if int64(n) <= cur || o.peakConns.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// PeakConns returns the largest simultaneous per-node link count observed.
func (o *OverlayStats) PeakConns() int { return int(o.peakConns.Load()) }

// AddRoundLatency records one party's wall-clock duration for one round.
func (o *OverlayStats) AddRoundLatency(d time.Duration) { o.roundLat.add(d) }

// RoundLatency summarizes the recorded per-round durations (nanoseconds).
func (o *OverlayStats) RoundLatency() Summary { return o.roundLat.summary() }

// String renders the counters for logs and the cmd/node summary line.
func (o *OverlayStats) String() string {
	lat := o.RoundLatency()
	return fmt.Sprintf("relayed %d envelopes (%d bytes, %d batches), delivered %d, dropped %d dups, replayed %d; "+
		"eor %d up / %d down; %d failovers; peak %d conns/node; round latency p50 %v p99 %v",
		o.Relayed.Load(), o.RelayBytes.Load(), o.Batches.Load(), o.Delivered.Load(),
		o.DedupDropped.Load(), o.Replayed.Load(), o.EORUp.Load(), o.EORDown.Load(),
		o.Failovers.Load(), o.PeakConns(), time.Duration(lat.P50), time.Duration(lat.P99))
}
