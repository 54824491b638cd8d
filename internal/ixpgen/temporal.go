package ixpgen

import (
	"math"
	"time"
)

// TemporalOptions configure a snapshot time series — the twelve-week,
// daily-snapshot collection of §3/§4 with its small day-to-day jitter
// (Table 3), slower multi-week drift (Table 4) and the occasional
// collection "valley" that sanitation must catch. The series starts on
// DefaultStart.
type TemporalOptions struct {
	// Days is the series length (84 days ≈ twelve weeks).
	Days int
	// Seed and Scale are passed through to Generate; each day derives
	// its own sub-seed.
	Seed  int64
	Scale float64
	// ValleyDays lists day offsets where the collection fails and the
	// snapshot loses ≥30% of members and routes (§3 sanitation).
	ValleyDays []int
}

// DefaultStart mirrors the paper's collection start date.
var DefaultStart = time.Date(2021, time.July, 19, 0, 0, 0, 0, time.UTC)

// The series' shape.
const (
	// dailyJitter is the amplitude of day-to-day variation (paper:
	// under 4%).
	dailyJitter = 0.012
	// weeklyDrift is the relative growth per week (Table 4 shows a
	// median min-max difference of ~5.3% over 12 weeks).
	weeklyDrift = 0.004
	// valleyDepth is the fraction retained on a valley day, a 38% drop.
	valleyDepth = 0.62
)

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

// DayScale returns the effective generation scale for day d: the base
// scale modulated by drift, deterministic jitter and valleys.
func (o TemporalOptions) DayScale(d int) float64 {
	(&o).setDefaults()
	week := float64(d) / 7.0
	// Deterministic pseudo-jitter: two incommensurate sinusoids give a
	// wandering ±dailyJitter without any RNG state to thread through.
	jitter := dailyJitter * 0.5 * (math.Sin(float64(d)*1.7+float64(o.Seed%7)) + math.Sin(float64(d)*0.61))
	scale := o.Scale * (1 + weeklyDrift*week + jitter)
	for _, v := range o.ValleyDays {
		if v == d {
			return scale * valleyDepth
		}
	}
	return scale
}

// GenerateDay builds the workload for day d of the series. Membership
// and announcements evolve through the changing scale and a distinct
// per-day seed component for churn.
func GenerateDay(p Profile, o TemporalOptions, d int) (*Workload, string, error) {
	o.setDefaults()
	date := dayDate(d)
	// The seed changes slowly: the same base population with per-day
	// churn comes from mixing a week component (stable within a week)
	// and a small day component.
	seed := o.Seed + int64(d/7)*1009 + int64(d%7)
	w, err := Generate(p, Options{Seed: seed, Scale: o.DayScale(d)})
	if err != nil {
		return nil, "", err
	}
	return w, date, nil
}
