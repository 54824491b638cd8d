package ixpgen

import "time"

// TemporalOptions configure a snapshot time series — the twelve-week,
// daily-snapshot collection of §3/§4 with its small day-to-day churn
// (Table 3), slower multi-week drift (Table 4) and the occasional
// collection "valley" that sanitation must catch. The series starts on
// DefaultStart; EvolveSeries generates it.
type TemporalOptions struct {
	// Days is the series length (84 days ≈ twelve weeks).
	Days int
	// Seed and Scale are passed through to Generate for day 0; each
	// later day derives its own sub-seed.
	Seed  int64
	Scale float64
	// ValleyDays lists day offsets where the collection fails and the
	// snapshot loses ≥30% of members and routes (§3 sanitation). Only
	// offsets in [1, Days) can be valleys: day 0 is the base the series
	// evolves from, and a valley needs a predecessor to drop from.
	ValleyDays []int
}

// DefaultStart mirrors the paper's collection start date.
var DefaultStart = time.Date(2021, time.July, 19, 0, 0, 0, 0, time.UTC)

// valleyDepth is the fraction a valley day retains, a 38% drop.
const valleyDepth = 0.62

func (o *TemporalOptions) setDefaults() {
	if o.Days <= 0 {
		o.Days = 84
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
}

// dayDate is day d's snapshot date.
func dayDate(d int) string { return DefaultStart.AddDate(0, 0, d).Format("2006-01-02") }
