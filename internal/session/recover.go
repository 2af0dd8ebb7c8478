package session

import (
	"container/heap"
	"fmt"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// Journal recovery. A restarted daemon rebuilds its session table before the
// mux exists: sealed sessions restore their terminal outcome directly, and
// non-terminal sessions re-admit with their original absolute deadline and
// re-step their engines — muted — through the journaled inbound frames. The
// deterministic machines reproduce the pre-crash seat state exactly, so the
// engines resume mid-protocol wherever the journal left them.
//
// The hard durability line: a decided session whose seal was fsynced (the
// only kind whose outcome a client can have observed, because waiters gate
// on the seal ticket) restores as decided with a byte-identical Result.
// Everything else — pending, running, or sealed-but-unsynced — restores as
// live and either finishes or times out by the ordinary round/deadline
// machinery, exactly as if the crash were a long network stall.

// recoverJournal replays the journal directory, opens the writer for new
// appends, and seals any session that went terminal during replay without a
// durable seal. Called by Daemon.Run before the mux is created.
func (m *Manager) recoverJournal(dir string, jopts journal.Options) error {
	m.replaying = true
	if err := journal.Replay(dir, jopts.Stats, m.restoreRecord); err != nil {
		return err
	}
	jopts.Dir = dir
	jw, err := journal.Open(jopts)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.jw = jw
	m.replaying = false
	// Appends are group-committed, so the previous incarnation may have
	// announced sessions whose admission record never reached the disk, and
	// the peers still hold those ids. Skip far past anything one sync
	// interval can admit, or the next local submits are refused as duplicates.
	m.nextSeq += 1 << 20
	// Sessions that reached a terminal state during replay (an abort or the
	// final decide was journaled, but the crash beat the seal) get their seal
	// now, so the next restart restores them directly.
	for _, s := range m.table {
		if s.state.Terminal() && !s.sealed {
			m.sealLocked(s)
		}
	}
	m.mu.Unlock()
	return nil
}

// restoreRecord is the journal.Replay callback.
func (m *Manager) restoreRecord(payload any) error {
	switch p := payload.(type) {
	case wire.JournalOpen:
		m.restoreOpen(p)
	case wire.JournalFrame:
		m.restoreFrame(p)
	case wire.JournalSeal:
		m.restoreSeal(p)
	}
	return nil
}

// restoreOpen re-admits one journaled session. The deadline is the recorded
// absolute one: a restart does not extend any session's TTL, and a session
// already past it expires on the first evict tick.
func (m *Manager) restoreOpen(open wire.JournalOpen) {
	spec := Spec{Tree: open.Tree, Seed: open.Seed, T: open.T, Inputs: open.Inputs,
		TTL: time.Duration(open.TTLMillis) * time.Millisecond}
	ps, err := parseSpec(spec, m.d.n, m.d.opts.DefaultTTL)
	if err != nil {
		return // journaled at admission, so it parsed once; tolerate, don't die
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.table[open.SID]; dup {
		return
	}
	s := m.trackLocked(open.SID, open.Origin, ps, time.Now(), time.Unix(0, open.DeadlineUnixNano))
	// Locally-submitted sessions keep the id sequence moving past them so
	// post-restart submits cannot collide with restored ids.
	if seq := open.SID & (1<<48 - 1); open.Origin == m.d.id && seq >= m.nextSeq {
		m.nextSeq = seq + 1
	}
	m.stats().Restored.Add(1)
	m.restored = append(m.restored, s.eng)
	m.logSession(s, "session restored")
}

// restoreFrame re-files one journaled inbound frame. Data-plane frames
// queue on the restored engine for its muted re-step; control frames apply
// through the ordinary handlers (whose sends are no-ops while the mux is
// nil). Frames for unknown or already-terminal sessions drop, mirroring the
// tombstone behavior of the live path.
func (m *Manager) restoreFrame(fr wire.JournalFrame) {
	typ, sid, err := wire.PeekSession(fr.Body)
	if err != nil {
		return
	}
	switch typ {
	case wire.TypeSessionMsg, wire.TypeSessionEOR:
		m.mu.Lock()
		if s := m.table[sid]; s != nil && !s.state.Terminal() {
			s.eng.replay = append(s.eng.replay, rawEvent{from: fr.From, body: fr.Body})
		}
		m.mu.Unlock()
		return
	}
	payload, err := wire.Decode(fr.Body)
	if err != nil {
		return
	}
	switch p := payload.(type) {
	case wire.SessionAbort:
		m.handleAbort(p)
	case wire.SessionDecide:
		m.handleDecide(fr.From, p)
	}
}

// restoreSeal rebuilds a sealed session's terminal outcome without re-running
// anything: state, reason, latency, and (for decided sessions) the assembled
// Result come straight from the record. The seal on disk is the durability
// proof, so the restored outcome is immediately observable.
func (m *Manager) restoreSeal(seal wire.JournalSeal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.table[seal.SID]
	if s == nil {
		return // seal without an open: tolerate (foreign or GC'd journal)
	}
	if s.state.Terminal() {
		s.sealed = true
		return
	}
	s.state = State(seal.State)
	s.reason = seal.Reason
	s.latency = time.Duration(seal.LatencyNS)
	if seal.HasResult {
		res := &sim.Result{
			Outputs:   make(map[sim.PartyID]any, len(seal.Outputs)),
			Corrupted: make(map[sim.PartyID]bool),
			Rounds:    seal.Rounds,
			Messages:  seal.Msgs,
			Bytes:     seal.Bytes,
		}
		for _, op := range seal.Outputs {
			res.Outputs[op.Party] = op.V
		}
		s.result = res
	}
	s.sealed = true
	m.inflight--
	s.terminal.Store(true)
	heap.Push(&m.reap, deadlineEntry{
		at: s.deadline.Add(m.d.opts.DefaultTTL).UnixNano(), sid: s.sid})
	if s.eng != nil {
		s.eng.replay = nil
		s.eng.sh.wake(s.eng)
	}
	m.stats().RestoredTerminal.Add(1)
	m.logSession(s, "session restored terminal")
}

// registerRestored hands every live restored engine to its shard, after the
// mux is up: the muted re-step happens on the shard workers, and any live
// frames that raced in since mux start are waiting in the shard's pending
// buffers to be absorbed right behind it.
func (m *Manager) registerRestored() {
	m.mu.Lock()
	engines := m.restored
	m.restored = nil
	m.mu.Unlock()
	for _, e := range engines {
		e.sh.register(e)
	}
}

// journalErr surfaces the journal writer's sticky error, if any.
func (m *Manager) journalErr() error {
	if m.jw == nil {
		return nil
	}
	if err := m.jw.Err(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
