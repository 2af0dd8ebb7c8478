package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ServeStats counts one serving daemon's session and batching work: the
// admission funnel (submitted → admitted → decided/failed/expired, with the
// two rejection reasons split out), the mux's batched writes (one Batch per
// write to a peer socket, covering BatchFrames session frames), and who did
// the work: a write or an engine turn is inline when the goroutine that
// caused it made it, deferred when it was handed to a link's flusher or the
// daemon's timekeeper. A rising deferred share is back-pressure. The counters
// are atomic and the latency sample is mutex-guarded, so one ServeStats may
// be shared by a daemon's manager, engines and peer links.
type ServeStats struct {
	Submitted         atomic.Int64 // sessions offered (local submits + peer opens)
	Admitted          atomic.Int64
	RejectedCapacity  atomic.Int64
	RejectedDuplicate atomic.Int64
	Decided           atomic.Int64
	Failed            atomic.Int64
	Expired           atomic.Int64 // deadline evictions (a subset of terminal failures)

	RestoredTerminal atomic.Int64 // sealed sessions rebuilt from the journal
	LinkDowns        atomic.Int64 // peer link failures observed
	LinkRedials      atomic.Int64 // peer links restored by the redial loop

	Batches         atomic.Int64 // writes to peer sockets: BatchesInline + BatchesDeferred
	BatchFrames     atomic.Int64 // session frames carried inside those writes
	BatchBytes      atomic.Int64
	BatchesInline   atomic.Int64 // non-blocking writes by the goroutine that stepped the engines
	BatchesDeferred atomic.Int64 // blocking writes by a link's flusher
	TurnsInline     atomic.Int64 // engine turns run by the goroutine that delivered their input
	TurnsDeferred   atomic.Int64 // engine turns run by the daemon's timekeeper
	ClientBytes     atomic.Int64 // client-API bytes written (binary protocol only)

	mu      sync.Mutex
	sessLat []float64 // nanoseconds from admission to terminal state
}

// AddSessionLatency records one session's admission-to-terminal duration.
func (s *ServeStats) AddSessionLatency(d time.Duration) {
	s.mu.Lock()
	s.sessLat = append(s.sessLat, float64(d.Nanoseconds()))
	s.mu.Unlock()
}

// SessionLatency summarizes the recorded session durations (nanoseconds).
func (s *ServeStats) SessionLatency() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Summarize(s.sessLat)
}

// BatchOccupancy returns the mean frames per flushed batch — the number
// that shows whether the flush tick is actually coalescing sessions.
func (s *ServeStats) BatchOccupancy() float64 {
	b := s.Batches.Load()
	if b == 0 {
		return 0
	}
	return float64(s.BatchFrames.Load()) / float64(b)
}

// String renders the counters for logs and the cmd/serve summary line.
func (s *ServeStats) String() string {
	lat := s.SessionLatency()
	return fmt.Sprintf("sessions %d submitted / %d admitted / %d decided / %d failed (%d expired); "+
		"rejected %d capacity + %d duplicate; "+
		"%d batches carrying %d frames (%.1f frames/batch, %d bytes); "+
		"writes %d inline + %d deferred; engine turns %d inline + %d deferred; "+
		"%d client bytes; session latency p50 %v p99 %v",
		s.Submitted.Load(), s.Admitted.Load(), s.Decided.Load(), s.Failed.Load(), s.Expired.Load(),
		s.RejectedCapacity.Load(), s.RejectedDuplicate.Load(),
		s.Batches.Load(), s.BatchFrames.Load(), s.BatchOccupancy(), s.BatchBytes.Load(),
		s.BatchesInline.Load(), s.BatchesDeferred.Load(), s.TurnsInline.Load(), s.TurnsDeferred.Load(),
		s.ClientBytes.Load(),
		time.Duration(lat.P50), time.Duration(lat.P99))
}
