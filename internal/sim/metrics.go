package sim

import "fmt"

// RoundMetrics meters the traffic of a single round.
type RoundMetrics struct {
	// HonestMessages counts point-to-point messages sent by honest
	// parties (a broadcast counts as n messages).
	HonestMessages int
	// HonestSignatures counts signature objects carried by honest
	// traffic — the paper's communication-complexity unit.
	HonestSignatures int
	// HonestBytes approximates honest traffic volume on the wire.
	HonestBytes int
	// AdversaryMessages counts messages injected by corrupted parties.
	AdversaryMessages int
}

// Metrics aggregates an execution's cost.
type Metrics struct {
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// PerRound holds one entry per executed round, in order.
	PerRound []RoundMetrics
	// Corruptions is the number of parties corrupted by the end.
	Corruptions int
}

// TotalHonestMessages sums honest point-to-point messages over all rounds.
func (m *Metrics) TotalHonestMessages() int {
	total := 0
	for _, r := range m.PerRound {
		total += r.HonestMessages
	}
	return total
}

// TotalHonestSignatures sums honest signature objects over all rounds.
func (m *Metrics) TotalHonestSignatures() int {
	total := 0
	for _, r := range m.PerRound {
		total += r.HonestSignatures
	}
	return total
}

// TotalHonestBytes sums honest wire bytes over all rounds.
func (m *Metrics) TotalHonestBytes() int {
	total := 0
	for _, r := range m.PerRound {
		total += r.HonestBytes
	}
	return total
}

// String summarizes the metrics on one line.
func (m *Metrics) String() string {
	return fmt.Sprintf("rounds=%d msgs=%d sigs=%d bytes=%d corruptions=%d",
		m.Rounds, m.TotalHonestMessages(), m.TotalHonestSignatures(),
		m.TotalHonestBytes(), m.Corruptions)
}

// accumulate meters copies honest messages carrying payload into the
// round record: a send's expansion shares one immutable payload, so it
// is metered once, not once per recipient.
func (r *RoundMetrics) accumulate(payload Payload, copies int) {
	r.HonestMessages += copies
	if payload != nil {
		r.HonestSignatures += copies * payload.SigCount()
		r.HonestBytes += copies * payload.ByteSize()
	}
}
