package realaa

// DecidedBy names the rule behind an early decision: "echo", "witness",
// or "" when the output waits for the schedule's end.
func (m *Machine) DecidedBy() string { return m.rule }
