package async

import "testing"

// The Bracha thresholds at their exact boundaries, n=4 t=1: echo→ready at
// n-t, ready amplification at t+1, delivery at 2t+1. Each test feeds one
// message fewer than the threshold first and asserts silence.

func TestRBCEchoThresholdExact(t *testing.T) {
	r := NewRBC[float64](4, 1, 1)
	echo := Step[float64]{Kind: KindEcho, Iter: 1, Src: 1, Val: 5}
	for _, from := range []PartyID{1, 2} { // n-t-1 = 2 echoes: below threshold
		if reply, delivered := r.Handle(from, echo); reply != 0 || delivered {
			t.Fatalf("ready sent after %d echoes, threshold is n-t=3", from)
		}
	}
	reply, delivered := r.Handle(3, echo)
	if delivered {
		t.Fatal("echoes alone delivered")
	}
	if reply != KindReady {
		t.Fatalf("n-t echoes produced reply %d, want the ready broadcast", reply)
	}
}

func TestRBCReadyThresholdsExact(t *testing.T) {
	r := NewRBC[float64](4, 1, 1)
	ready := Step[float64]{Kind: KindReady, Iter: 1, Src: 2, Val: 7}
	// t readies: no amplification yet.
	if reply, delivered := r.Handle(1, ready); reply != 0 || delivered {
		t.Fatal("single ready amplified, threshold is t+1=2")
	}
	// t+1 readies: amplify, but 2t+1 not reached — no delivery.
	reply, delivered := r.Handle(2, ready)
	if delivered {
		t.Fatal("delivered at t+1 readies, threshold is 2t+1=3")
	}
	if reply != KindReady {
		t.Fatalf("t+1 readies produced reply %d, want our own ready", reply)
	}
	// 2t+1 readies: deliver exactly once, no further traffic.
	reply, delivered = r.Handle(3, ready)
	if reply != 0 {
		t.Fatalf("delivery step sent reply %d, want nothing", reply)
	}
	if !delivered {
		t.Fatal("2t+1 readies for value 7 from src 2 did not deliver")
	}
	// A fourth ready must not re-deliver.
	if _, delivered = r.Handle(0, ready); delivered {
		t.Fatal("re-delivered past 2t+1")
	}
}

// TestAADecidesWithMinimumMessages drives one AA iteration on the leanest
// possible transcript: no INIT or ECHO ever arrives — every RBC delivery
// rides pure ready quorums — and the party sees exactly n-t values and n-t
// reports, (n-t)·(2t+1)·2 = 18 messages in all. One message short it must
// still be undecided.
func TestAADecidesWithMinimumMessages(t *testing.T) {
	n, tc := 4, 1
	m := NewRealAA(n, tc, 0, 1.0, 1)
	m.Init()

	type step struct {
		msg Message
	}
	var script []step
	for src, val := range map[PartyID]float64{0: 1, 1: 2, 2: 3} {
		for _, from := range []PartyID{1, 2, 3} {
			script = append(script, step{Message{From: from, Payload: Step[float64]{
				Kind: KindReady, Iter: 1, Src: src, Val: val}}})
		}
	}
	for _, rep := range []PartyID{0, 1, 2} {
		for _, from := range []PartyID{1, 2, 3} {
			script = append(script, step{Message{From: from, Payload: Step[float64]{
				Report: true, Kind: KindReady, Iter: 1, Src: rep, Senders: []PartyID{0, 1, 2}}}})
		}
	}
	for i, s := range script {
		if _, done := m.Output(); done {
			t.Fatalf("decided after %d messages, minimum is %d", i, len(script))
		}
		m.Deliver(s.msg)
	}
	raw, done := m.Output()
	if !done {
		t.Fatalf("undecided after the full %d-message minimum transcript", len(script))
	}
	// Trimmed midpoint of {1,2,3} with t=1: drop 1 and 3, midpoint of {2}.
	if v := raw.(float64); v != 2 {
		t.Errorf("decided %v, want 2", v)
	}
}
