package session

import (
	"container/heap"
	"fmt"
	"time"

	"treeaa/internal/journal"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// Journal recovery. The journal holds two records per session — the
// admission (JournalOpen) and the terminal outcome (JournalSeal) — and a
// restarted daemon rebuilds its session table from them before the mux
// exists. Nothing is re-run: a sealed session restores its outcome, and an
// admitted session without a seal restores as failed, a table entry for
// Status and the duplicate-id check.
//
// The hard durability line: a decided session whose seal was fsynced (the
// only kind whose outcome a client can have observed, because waiters gate
// on the seal ticket) restores as decided with a byte-identical Result.
// In-flight sessions are not recoverable and need not be: every surviving
// daemon failed them on link-down the moment this one died, so the client's
// recourse is a resubmit either way.

// reasonRestarted is the failure reason of a session the journal admitted
// but never sealed.
const reasonRestarted = "daemon restarted before the session sealed"

// recoverJournal replays the journal directory, opens the writer for new
// appends, and seals every session the previous incarnation left unsealed.
// Called by Daemon.Run before the mux is created.
func (m *Manager) recoverJournal(dir string, jopts journal.Options) error {
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
	// Appends are group-committed, so the previous incarnation may have
	// announced sessions whose admission record never reached the disk, and
	// the peers still hold those ids. Skip far past anything one sync
	// interval can admit, or the next local submits are refused as duplicates.
	m.nextSeq += 1 << 20
	// The failures just restored get their seal now, so the next restart
	// restores them from it.
	for _, s := range m.table {
		m.sealLocked(s)
		m.logSession(s, "session restored")
	}
	m.mu.Unlock()
	return nil
}

// restoreRecord is the journal.Replay callback. JournalFrame records (older
// builds logged every inbound frame) carry nothing the table needs and are
// skipped.
func (m *Manager) restoreRecord(payload any) error {
	switch p := payload.(type) {
	case wire.JournalOpen:
		m.restoreOpen(p)
	case wire.JournalSeal:
		m.restoreSeal(p)
	}
	return nil
}

// restoreOpen enters one journaled admission as failed; its seal, if the
// journal has one, follows and overwrites the outcome. The entry lingers as
// long as the original would have: the recorded absolute deadline plus the
// usual grace.
func (m *Manager) restoreOpen(open wire.JournalOpen) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.table[open.SID]; dup {
		return
	}
	s := &session{sid: open.SID, origin: open.Origin, state: StateFailed, reason: reasonRestarted,
		deadline: time.Unix(0, open.DeadlineUnixNano)}
	s.terminal.Store(true)
	m.table[open.SID] = s
	heap.Push(&m.reap, deadlineEntry{
		at: s.deadline.Add(m.d.opts.DefaultTTL).UnixNano(), sid: s.sid})
	// Locally-submitted sessions keep the id sequence moving past them so
	// post-restart submits cannot collide with restored ids.
	if seq := open.SID & (1<<48 - 1); open.Origin == m.d.id && seq >= m.nextSeq {
		m.nextSeq = seq + 1
	}
}

// restoreSeal rebuilds a sealed session's terminal outcome: state, reason,
// latency, and (for decided sessions) the assembled Result come straight
// from the record. The seal on disk is the durability proof, so the restored
// outcome is immediately observable.
func (m *Manager) restoreSeal(seal wire.JournalSeal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.table[seal.SID]
	if s == nil || s.sealed {
		return // no open (foreign or GC'd journal) or a second seal: the first stands
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
	m.stats().RestoredTerminal.Add(1)
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
