package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Recorder is a Tracer that captures a full execution transcript:
// every honest and adversarial message per round plus corruption
// events. Transcripts support determinism checks (two runs with equal
// seeds must record byte-identical transcripts) and replay checks.
type Recorder struct {
	// Rounds holds one record per executed round, in order.
	Rounds []RoundRecord
}

// RoundRecord is the transcript of one round.
type RoundRecord struct {
	Round       int
	Honest      []Message
	Adversarial []Message
	Corruptions []PartyID
}

var _ Tracer = (*Recorder)(nil)

// RoundStart implements Tracer.
func (r *Recorder) RoundStart(round int) {
	r.Rounds = append(r.Rounds, RoundRecord{Round: round})
}

// current returns the record being filled, creating one defensively if
// events arrive before RoundStart (e.g. corruption during Init).
func (r *Recorder) current(round int) *RoundRecord {
	if len(r.Rounds) == 0 || r.Rounds[len(r.Rounds)-1].Round != round {
		r.Rounds = append(r.Rounds, RoundRecord{Round: round})
	}
	return &r.Rounds[len(r.Rounds)-1]
}

// HonestSent implements Tracer; it copies the slice (the engine reuses
// nothing, but the transcript must stay immutable).
func (r *Recorder) HonestSent(round int, msgs []Message) {
	rec := r.current(round)
	rec.Honest = append(rec.Honest, msgs...)
}

// AdversarySent implements Tracer.
func (r *Recorder) AdversarySent(round int, msgs []Message) {
	rec := r.current(round)
	rec.Adversarial = append(rec.Adversarial, msgs...)
}

// Corrupted implements Tracer.
func (r *Recorder) Corrupted(round int, p PartyID) {
	rec := r.current(round)
	rec.Corruptions = append(rec.Corruptions, p)
}

// Fingerprint renders the transcript into a canonical string: equal
// fingerprints mean equal executions. Message order within a round is
// canonicalized by (from, to).
func (r *Recorder) Fingerprint() string {
	var b strings.Builder
	for _, rec := range r.Rounds {
		fmt.Fprintf(&b, "r%d|", rec.Round)
		writeCanonical(&b, rec.Honest)
		b.WriteByte('/')
		writeCanonical(&b, rec.Adversarial)
		if len(rec.Corruptions) > 0 {
			corr := append([]PartyID(nil), rec.Corruptions...)
			sort.Ints(corr)
			fmt.Fprintf(&b, "!%v", corr)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writeCanonical appends a canonical rendering of a message set.
func writeCanonical(b *strings.Builder, msgs []Message) {
	sorted := append([]Message(nil), msgs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	for _, m := range sorted {
		fmt.Fprintf(b, "%d>%d:%#v;", m.From, m.To, m.Payload)
	}
}
