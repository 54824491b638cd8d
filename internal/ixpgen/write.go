package ixpgen

import "ixplight/internal/collector"

// WriteSeries writes one IXP's evolved series (EvolveSeries at the
// default churn) into dir as a fresh chain (collector.Chain: day 0 a
// .bin head, every later day a .delta against the day before) and
// returns the number of files written: the one writer of a dataset.
// Same-named files are overwritten.
func WriteSeries(dir string, p Profile, opts TemporalOptions) (int, error) {
	files := 0
	chain := collector.Chain{Dir: dir}
	err := EvolveSeries(p, opts, 0, func(day int, snap *collector.Snapshot) error {
		files++
		_, err := chain.Save(snap)
		return err
	})
	return files, err
}
