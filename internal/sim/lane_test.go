package sim

import (
	"slices"
	"testing"
)

// laneMachine broadcasts every round up to rounds and hands each step's
// lane to see; when id == 1 it also sends party 3 a unicast in round 2.
type laneMachine struct {
	id     PartyID
	rounds int
	see    func(id PartyID, r int, lane *Lane)
	done   bool
}

func (m *laneMachine) Step(r int, inbox []Message) []Message { return m.StepLane(r, inbox, nil) }

func (m *laneMachine) StepLane(r int, _ []Message, lane *Lane) []Message {
	m.see(m.id, r, lane)
	if r > m.rounds {
		m.done = true
		return nil
	}
	out := []Message{{To: Broadcast, Payload: intPayload(r)}}
	if m.id == 1 && r == 2 {
		out = append(out, Message{To: 3, Payload: intPayload(99)})
	}
	return out
}

func (m *laneMachine) Output() (any, bool) { return nil, m.done }

// laneRun runs n laneMachines for 3 broadcast rounds with run and returns,
// per round, the parties that got a lane and the lanes they got.
func laneRun(t *testing.T, n int, run func(Config, []Machine) (*Result, error), adv Adversary, see func(PartyID, int, *Lane)) (readers [][]PartyID, lanes [][]*Lane) {
	t.Helper()
	readers, lanes = make([][]PartyID, 5), make([][]*Lane, 5)
	machines := make([]Machine, n)
	for i := range machines {
		machines[i] = &laneMachine{id: PartyID(i), rounds: 3, see: func(id PartyID, r int, lane *Lane) {
			if lane != nil {
				readers[r] = append(readers[r], id)
				lanes[r] = append(lanes[r], lane)
			}
			if see != nil {
				see(id, r, lane)
			}
		}}
	}
	cfg := Config{N: n, MaxRounds: 5, Adversary: adv}
	if adv != nil {
		cfg.MaxCorrupt = 1
	}
	if _, err := run(cfg, machines); err != nil {
		t.Fatal(err)
	}
	return readers, lanes
}

// TestLaneGoesOnlyToLaneReaders: Run hands the store to exactly the honest
// parties whose inbox is the round's non-empty lane — never in round 1,
// never to a party with unicast mail — one store for all of them, and
// RunConcurrent hands it to nobody.
func TestLaneGoesOnlyToLaneReaders(t *testing.T) {
	const n = 5
	readers, lanes := laneRun(t, n, Run, nil, nil)
	all := []PartyID{0, 1, 2, 3, 4}
	want := [][]PartyID{nil, nil, all, {0, 1, 2, 4}, all}
	for r := 1; r <= 4; r++ {
		if !slices.Equal(readers[r], want[r]) {
			t.Errorf("round %d: lane readers %v, want %v", r, readers[r], want[r])
		}
		for _, l := range lanes[r] {
			if l != lanes[r][0] {
				t.Errorf("round %d: readers got different stores", r)
			}
		}
	}
	readers, _ = laneRun(t, n, RunConcurrent, nil, nil)
	for r, ids := range readers {
		if len(ids) > 0 {
			t.Errorf("RunConcurrent round %d: parties %v got a lane", r, ids)
		}
	}
}

// TestLaneOmitterForwards: an omission party's seat forwards the lane to
// its machine. Party 1's sends are all dropped, so every inbox is the lane.
func TestLaneOmitterForwards(t *testing.T) {
	readers, _ := laneRun(t, 3, Run, &omitAll{}, nil)
	for r := 2; r <= 4; r++ {
		if !slices.Contains(readers[r], 1) {
			t.Errorf("round %d: omission party 1 got no lane (readers %v)", r, readers[r])
		}
	}
}

// TestLaneLivesOneRound: a digest is found by the round's later readers and
// by nobody in the next round; the first publication of a key stands; and a
// store kept past the execution is empty.
func TestLaneLivesOneRound(t *testing.T) {
	key := LaneKey{Kind: "k", Pass: 1, Iter: 1}
	var kept *Lane
	_, _ = laneRun(t, 4, Run, nil, func(id PartyID, r int, lane *Lane) {
		if lane == nil {
			return
		}
		kept = lane
		v, ok := lane.Digest(key)
		switch {
		case id == 0 && ok:
			t.Errorf("round %d: the first reader found a digest (%v): the store was not reset", r, v)
		case id == 0:
			lane.Publish(key, r)
			lane.Publish(key, -r) // dropped: the first publication stands
		case !ok || v != r:
			t.Errorf("round %d: party %d found %v, %v; want %d", r, id, v, ok, r)
		}
		if want := int(id); lane.Hits() != want {
			t.Errorf("round %d: party %d sees %d hits, want %d", r, id, lane.Hits(), want)
		}
	})
	if kept == nil {
		t.Fatal("no party got a lane")
	}
	if v, ok := kept.Digest(key); ok || kept.Hits() != 0 {
		t.Errorf("store kept past the execution holds %v (hits %d), want nothing", v, kept.Hits())
	}
	var nilLane *Lane
	nilLane.Publish(key, 1)
	if _, ok := nilLane.Digest(key); ok || nilLane.Hits() != 0 {
		t.Error("a nil Lane kept a digest")
	}
}
