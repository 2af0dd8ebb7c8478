package sim

// Lane is the digest store of one round's broadcast lane. Run hands it,
// through LaneReader, to every honest party whose inbox is the lane itself
// (the round's broadcasts, with no unicast mail of its own), so that a pass
// each of those parties would make over the same messages runs once: the
// first reader publishes the pass's result as a digest under a key, and
// every later reader with that key adopts it instead of reading the lane
// again.
//
// The lane rule: a digest is written once, by its first reader, and is
// read-only after that; it lives one round of one execution. The engine
// empties the store at the start of every round and when the execution
// ends, so a reader must not keep a digest, or the Lane, past its Step. A
// nil *Lane is an empty store that keeps nothing.
type Lane struct {
	digests []laneDigest
	// inline backs digests from the engine's first reset on, so a round's
	// few digests (one per kind of reader that reads the lane; the shipped
	// protocols make one a round) cost no allocation.
	inline [4]laneDigest
	hits   int // lookups that found a digest this round
}

// LaneKey names one pass over a lane: Kind is the reader's (for a
// gradecast tally, its first tag), Pass and Iter which of its passes.
type LaneKey struct {
	Kind       string
	Pass, Iter int
}

type laneDigest struct {
	key LaneKey
	val any
}

// Digest returns the digest published under key this round, if any.
func (l *Lane) Digest(key LaneKey) (any, bool) {
	if l == nil {
		return nil, false
	}
	for i := range l.digests {
		if l.digests[i].key == key {
			l.hits++
			return l.digests[i].val, true
		}
	}
	return nil, false
}

// Hits returns how many lookups found a digest this round: the passes
// later readers could adopt instead of making.
func (l *Lane) Hits() int {
	if l == nil {
		return 0
	}
	return l.hits
}

// Publish stores v under key for the rest of the round. The first
// publication of a key stands; a later one is dropped.
func (l *Lane) Publish(key LaneKey, v any) {
	if l == nil {
		return
	}
	for i := range l.digests {
		if l.digests[i].key == key {
			return
		}
	}
	l.digests = append(l.digests, laneDigest{key: key, val: v})
}

// reset empties the store, keeping its capacity for the next round.
func (l *Lane) reset() {
	clear(l.digests)
	if l.digests == nil {
		l.digests = l.inline[:0]
	}
	l.digests, l.hits = l.digests[:0], 0
}

// LaneReader is an optional Machine extension for readers of the broadcast
// lane. Run calls StepLane instead of Step, with the round's Lane, for an
// honest party whose inbox is the round's non-empty lane; every other step
// — round 1, a party with unicast mail, every step of RunConcurrent and of
// the TCP fabrics — is a plain Step. StepLane(r, inbox, lane) must return
// what Step(r, inbox) would; lane only lets it skip work another reader of
// the same inbox has already done (see Lane for the rule).
type LaneReader interface {
	Machine
	StepLane(r int, inbox []Message, lane *Lane) []Message
}

// StepLane steps m for round r: through m's StepLane when lane is non-nil
// and m is a LaneReader, else through Step. A machine that wraps another
// forwards the lane with it.
func StepLane(m Machine, r int, inbox []Message, lane *Lane) []Message {
	if lr, ok := m.(LaneReader); ok && lane != nil {
		return lr.StepLane(r, inbox, lane)
	}
	return m.Step(r, inbox)
}
