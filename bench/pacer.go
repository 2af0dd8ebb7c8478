package main

import "time"

// clock is the generator's view of time; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is an open loop's fixed timetable: operation i is due at
// start + i·interval whatever the system under test is doing, so a stall
// delays nothing on paper and every later operation's wait is counted.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// pace issues operations 0..count-1, each no earlier than its due time, and
// returns how late each one was issued (issue time − due time, never
// negative). A slow issue call makes the following operations late; it never
// moves their due times. Latency is measured by the caller from due(i).
func (s schedule) pace(clk clock, count int, issue func(i int)) []time.Duration {
	late := make([]time.Duration, count)
	for i := 0; i < count; i++ {
		due := s.due(i)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		late[i] = max(clk.Now().Sub(due), 0)
		issue(i)
	}
	return late
}
