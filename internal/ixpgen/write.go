package ixpgen

import "ixplight/internal/collector"

// WriteSeries writes one IXP's evolved series (EvolveSeries at the
// default churn) into dir in a single run and returns the number of
// files written: the one writer of a dataset. With asDelta set, day 0
// is saved as a full binary snapshot and every later day as one .delta
// file against the previous day; otherwise each day is a full binary
// snapshot.
func WriteSeries(dir string, p Profile, opts TemporalOptions, asDelta bool) (int, error) {
	files := 0
	var enc *collector.DeltaEncoder
	err := EvolveSeries(p, opts, 0, func(day int, snap *collector.Snapshot) error {
		files++
		if enc == nil {
			_, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary)
			if err == nil && asDelta {
				enc, err = collector.NewDeltaEncoder(snap)
			}
			return err
		}
		buf, err := enc.Encode(snap)
		if err != nil {
			return err
		}
		_, err = collector.SaveDelta(dir, snap, buf)
		return err
	})
	return files, err
}
