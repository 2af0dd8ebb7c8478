package driver

import (
	"reflect"
	"strings"
	"testing"

	"treeaa/internal/async"
	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// value builds a pipeline payload whose Val identifies it in the delivery
// log.
func value(k int, val float64) wire.AsyncValue {
	return wire.AsyncValue{Phase: async.PhasePathsFinder, Kind: async.KindInit, Iter: k, Val: val}
}

// scriptEvent answers each delivery from a script keyed by the delivered
// value, logs the order deliveries happen in, and decides when it has seen
// decideAfter of them.
type scriptEvent struct {
	init        []async.Message
	onDeliver   map[float64][]async.Message
	decideAfter int
	budget      int
	log         []float64
}

func (m *scriptEvent) Init() []async.Message { return m.init }

func (m *scriptEvent) Deliver(msg async.Message) []async.Message {
	v := msg.Payload.(wire.AsyncValue).Val
	m.log = append(m.log, v)
	return m.onDeliver[v]
}

func (m *scriptEvent) Output() (any, bool) {
	if m.decideAfter > 0 && len(m.log) >= m.decideAfter {
		return len(m.log), true
	}
	return nil, false
}

func (m *scriptEvent) EnvelopeRound(payload any) int {
	return int(payload.(wire.AsyncValue).Val)
}

func (m *scriptEvent) DeliveryBudget() int { return m.budget }

type recEventSink struct {
	emits     []string // "r<round>→<to>"
	announced int
}

func (s *recEventSink) Send(round int, to sim.PartyID, payload any) error {
	if _, ok := payload.(wire.AsyncValue); !ok {
		panic("Send handed a non-wire payload")
	}
	s.emits = append(s.emits, "r"+itoa(round)+"→"+itoa(int(to)))
	return nil
}

func (s *recEventSink) Announce() error { s.announced++; return nil }

// TestEventSelfQueueFIFO: self-addressed sends are delivered in emission
// order before Start/Deliver returns, and sends a self-delivery emits join
// the back of the queue instead of recursing — 1 and 2 (from Init) are
// delivered before 3 (emitted while delivering 1).
func TestEventSelfQueueFIFO(t *testing.T) {
	const self = 1
	m := &scriptEvent{
		budget: 100,
		init: []async.Message{
			{To: self, Payload: value(1, 1)},
			{To: async.Broadcast, Payload: value(1, 2)},
		},
		onDeliver: map[float64][]async.Message{
			1: {{To: self, Payload: value(2, 3)}, {To: 0, Payload: value(2, 9)}},
			7: {{To: self, Payload: value(3, 8)}},
		},
		decideAfter: 5,
	}
	sink := &recEventSink{}
	ev := NewEvent(self, 3, m, sink)
	if err := ev.Start(); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 3}; !reflect.DeepEqual(m.log, want) {
		t.Fatalf("delivery order %v, want %v", m.log, want)
	}
	if want := []string{"r1→1", "r2→-1", "r3→1", "r9→0"}; !reflect.DeepEqual(sink.emits, want) {
		t.Errorf("emits %v, want %v (every send reaches the sink once, envelope round from the machine)", sink.emits, want)
	}
	// A remote arrival and the self-send it triggers are both consumed
	// before Deliver returns; the fifth delivery decides and announces once.
	if err := ev.Deliver(0, value(1, 7)); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 3, 7, 8}; !reflect.DeepEqual(m.log, want) {
		t.Fatalf("delivery order %v, want %v", m.log, want)
	}
	if !ev.Decided() || sink.announced != 1 || ev.Output() != 5 {
		t.Errorf("decided=%v announced=%d output=%v, want one announcement of 5", ev.Decided(), sink.announced, ev.Output())
	}
	if ev.Deliveries() != 5 {
		t.Errorf("Deliveries = %d, want 5 (self-deliveries count)", ev.Deliveries())
	}
	// 1 + 3 (broadcast) + 1 + 1 + 1 sends.
	if got := ev.Tally().Msgs; got != 7 {
		t.Errorf("Msgs = %d, want 7", got)
	}
	if err := ev.Deliver(0, value(1, 5)); err != nil {
		t.Fatal(err)
	}
	if sink.announced != 1 {
		t.Errorf("announced %d times, want exactly once", sink.announced)
	}
}

// TestEventErrors: the flood guard, the announcement rules, foreign payloads
// and bad recipients all fail loudly.
func TestEventErrors(t *testing.T) {
	arrival := value(1, 4)
	cases := []struct {
		name string
		m    *scriptEvent
		run  func(ev *Event) error
		want string
	}{
		{"budget exceeded by arrivals", &scriptEvent{budget: 2}, func(ev *Event) error {
			for i := 0; i < 2; i++ {
				if err := ev.Deliver(1, arrival); err != nil {
					return err
				}
			}
			return ev.Deliver(1, arrival)
		}, "party 0: async delivery budget 2 exceeded"},
		{"budget exceeded by a self-send loop", &scriptEvent{budget: 5,
			init:      []async.Message{{To: 0, Payload: value(1, 4)}},
			onDeliver: map[float64][]async.Message{4: {{To: 0, Payload: value(1, 4)}}}},
			func(ev *Event) error { return ev.Start() }, "party 0: async delivery budget 5 exceeded"},
		{"duplicate done", &scriptEvent{budget: 1}, func(ev *Event) error {
			if err := ev.PeerDone(2, true); err != nil {
				return err
			}
			return ev.PeerDone(2, true)
		}, "party 0: duplicate done from party 2"},
		{"non-done announcement", &scriptEvent{budget: 1},
			func(ev *Event) error { return ev.PeerDone(1, false) }, "party 0: non-done announcement from party 1"},
		{"lock-step payload", &scriptEvent{budget: 1},
			func(ev *Event) error { return ev.Deliver(1, wire.SessionEOR{}) }, "non-async payload wire.SessionEOR from party 1"},
		{"recipient out of range", &scriptEvent{budget: 1, init: []async.Message{{To: 3, Payload: value(1, 1)}}},
			func(ev *Event) error { return ev.Start() }, "party 0: async recipient 3 out of range [0, 3)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(NewEvent(0, 3, tc.m, &recEventSink{}))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}

// TestEventFinished: finished means decided and every peer announced, in
// either order.
func TestEventFinished(t *testing.T) {
	m := &scriptEvent{budget: 10, decideAfter: 1}
	ev := NewEvent(0, 3, m, &recEventSink{})
	if err := ev.Start(); err != nil {
		t.Fatal(err)
	}
	ev.PeerDone(1, true)
	ev.PeerDone(2, true)
	if ev.Finished() || ev.PeersDone() != 2 || !ev.IsPeerDone(1) {
		t.Fatalf("finished=%v peersDone=%d before deciding", ev.Finished(), ev.PeersDone())
	}
	if err := ev.Deliver(1, value(1, 1)); err != nil {
		t.Fatal(err)
	}
	if !ev.Finished() {
		t.Fatal("decided with every peer done, yet not finished")
	}
}
