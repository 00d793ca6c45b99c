package experiment

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"proxcensus/internal/stats"
)

// CurvePoint is one x-position on a graceful-degradation curve: all
// trials at one fault level, collapsed to a decision rate with a
// Wilson interval and wall-clock quantiles.
type CurvePoint struct {
	// Faults is the exact faulty-node count (the curve's x axis).
	Faults int `json:"faults"`
	// Trials counts every classified trial at this level; Decided,
	// Degraded and TimedOut partition it.
	Trials   int `json:"trials"`
	Decided  int `json:"decided"`
	Degraded int `json:"degraded"`
	TimedOut int `json:"timed_out"`
	// Rate is Decided/Trials; Lo/Hi bound its 95% Wilson interval.
	Rate float64 `json:"rate"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	// P50MS/P99MS are wall-clock quantiles over the level's trials.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Curve collapses trial results into a degradation curve: one point
// per fault level, levels ascending. Partial input is fine — the
// curve covers whatever trials exist, including timed-out ones (they
// count against the decision rate; that is the point of mandatory
// timeout wrapping).
func Curve(results []TrialResult) ([]CurvePoint, error) {
	byLevel := make(map[int][]TrialResult)
	for _, tr := range results {
		byLevel[tr.Faults] = append(byLevel[tr.Faults], tr)
	}
	levels := make([]int, 0, len(byLevel))
	for f := range byLevel {
		levels = append(levels, f)
	}
	sort.Ints(levels)
	out := make([]CurvePoint, 0, len(levels))
	for _, f := range levels {
		trs := byLevel[f]
		p := CurvePoint{Faults: f, Trials: len(trs)}
		wall := make([]float64, 0, len(trs))
		for _, tr := range trs {
			switch tr.Outcome {
			case OutcomeDecided:
				p.Decided++
			case OutcomeTimedOut:
				p.TimedOut++
			default:
				p.Degraded++
			}
			wall = append(wall, tr.WallMS)
		}
		prop, err := stats.NewProportion(p.Decided, p.Trials)
		if err != nil {
			return nil, fmt.Errorf("experiment: curve at faults=%d: %w", f, err)
		}
		p.Rate, p.Lo, p.Hi = prop.P, prop.Lo, prop.Hi
		if p.P50MS, err = stats.Quantile(wall, 0.50); err != nil {
			return nil, fmt.Errorf("experiment: curve at faults=%d: %w", f, err)
		}
		if p.P99MS, err = stats.Quantile(wall, 0.99); err != nil {
			return nil, fmt.Errorf("experiment: curve at faults=%d: %w", f, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// ReadJSONL loads a results archive, tolerating partial output: blank
// lines and lines that fail to parse (a truncated final line from a
// killed sweep, say) are skipped and counted, never fatal.
func ReadJSONL(r io.Reader) (results []TrialResult, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tr TrialResult
		if json.Unmarshal(line, &tr) != nil || tr.Outcome == "" {
			skipped++
			continue
		}
		results = append(results, tr)
	}
	return results, skipped, sc.Err()
}

// minTailTrials is the fewest trials at a fault level for which the
// curve reports a p99: the highest percentile a table may report is
// one with at least ten trials beyond it, and a p99 has ten beyond it
// from 1 000 trials on. Below that a p99 is the interpolation between
// the few largest values, no tail, so the level shows its median alone.
const minTailTrials = 1000

// WriteCurve renders a degradation curve as an aligned text table —
// the human-readable companion to the JSONL artifact. A level with
// fewer than minTailTrials trials shows its p50 alone and "-" for its
// p99.
func WriteCurve(w io.Writer, name string, curve []CurvePoint) error {
	t := &Table{
		Title:   name + ": decision rate and wall-clock as faults sweep",
		Columns: []string{"faults", "trials", "decided", "degraded", "timedout", "rate [95% Wilson]", "p50(ms)", "p99(ms)"},
	}
	for _, p := range curve {
		p99 := "-"
		if p.Trials >= minTailTrials {
			p99 = fmt.Sprintf("%.1f", p.P99MS)
		}
		t.AddRow(p.Faults, p.Trials, p.Decided, p.Degraded, p.TimedOut,
			fmt.Sprintf("%.2f [%.2f, %.2f]", p.Rate, p.Lo, p.Hi), fmt.Sprintf("%.1f", p.P50MS), p99)
	}
	return t.Render(w)
}
