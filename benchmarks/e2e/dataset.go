package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ixplight/internal/collector"
	"ixplight/internal/ixpgen"
)

// shapeSeed is the generator seed of every route table and stored
// dataset in this benchmark. The run's -seed decides what happens *to*
// them — which routes churn and with what MED, which queries form the
// universe and in what order they are asked, which experiment inputs
// the lab generates, which IXP a day lands on first — but not their
// shape. Measured on seeds 1–10, letting -seed pick the shape moved
// allocs_per_op by 1.0–3.8 %, alloc_mb_per_op by up to 7 % and
// op_cal_p50_ms by 3.5–8 % on its own (crawl has nine members at this
// scale; who gets the big tables is a lottery), several times the
// same-seed spread and more than the regression bounds: the gate would
// have measured the draw, not the code.
const shapeSeed = 20210719

// datasetSpec describes a stored multi-IXP daily dataset: per IXP one
// .bin base plus a .delta chain, the on-disk shape `ixpgen -codec
// delta` and `collect -codec delta` produce.
type datasetSpec struct {
	profiles []ixpgen.Profile
	scale    float64
	// days land in the dataset directory; staged further days per IXP
	// are encoded into a staging directory for the reload workload.
	days, staged int
	churn        float64
	valleys      []int
}

// dataset is a built datasetSpec.
type dataset struct {
	dir, stageDir string
	// stagedFiles[ixp index] lists that IXP's staged .delta files in
	// date order; stagedDates the days they carry.
	stagedFiles [][]string
	stagedDates [][]string
}

// buildDataset generates and stores spec under fresh directories of
// the harness's workdir. Generation and delta encoding are timed as
// set-up stages, writing the encoded days to disk is kept off the
// set-up clock (harness.offClock); the snapshots themselves are dropped
// as soon as they are encoded.
func buildDataset(h *harness, spec datasetSpec) (*dataset, error) {
	dir, err := h.mkWorkdir("dataset")
	if err != nil {
		return nil, err
	}
	ds := &dataset{dir: dir}
	if spec.staged > 0 {
		if ds.stageDir, err = h.mkWorkdir("staged"); err != nil {
			return nil, err
		}
		ds.stagedFiles = make([][]string, len(spec.profiles))
		ds.stagedDates = make([][]string, len(spec.profiles))
	}
	for pi, p := range spec.profiles {
		opts := ixpgen.TemporalOptions{Seed: shapeSeed, Scale: spec.scale, Days: spec.days + spec.staged, ValleyDays: spec.valleys}
		var enc *collector.DeltaEncoder
		var inCallback time.Duration
		t0 := time.Now()
		err := ixpgen.EvolveSeries(p, opts, spec.churn, func(day int, snap *collector.Snapshot) error {
			c0 := time.Now()
			defer func() { inCallback += time.Since(c0) }()
			// A calibration sample a week: the set-up's scale is the
			// median of its samples, and setup_s's run-to-run spread
			// grew steadily as they were thinned out (README, "Set-up").
			if day%7 == 6 && day+1 < opts.Days {
				h.tick()
			}
			if day == 0 {
				if _, err := collector.SaveSnapshot(dir, snap, collector.CodecBinary); err != nil {
					return err
				}
				var err error
				enc, err = collector.NewDeltaEncoder(snap)
				return err
			}
			var buf []byte
			if err := h.stage("collector.delta_encode", func() (err error) {
				buf, err = enc.Encode(snap)
				return err
			}); err != nil {
				return err
			}
			target := dir
			name := fmt.Sprintf("%s-%s%s", snap.IXP, snap.Date, collector.DeltaExt)
			if day >= spec.days {
				target = ds.stageDir
				ds.stagedFiles[pi] = append(ds.stagedFiles[pi], name)
				ds.stagedDates[pi] = append(ds.stagedDates[pi], snap.Date)
			}
			return h.offClock(func() error {
				return collector.AtomicWrite(filepath.Join(target, name), func(w io.Writer) error {
					_, err := w.Write(buf)
					return err
				})
			})
		})
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", p.IXP, err)
		}
		// Generation is what EvolveSeries did outside the callback.
		h.setupStages["ixpgen.generate"] += time.Since(t0) - inCallback
		h.genDays += spec.days + spec.staged
		h.tick()
	}
	return ds, nil
}

func (ds *dataset) remove() {
	if ds == nil {
		return
	}
	removeAll(ds.dir)
	removeAll(ds.stageDir)
}

func removeAll(dir string) {
	if dir != "" {
		os.RemoveAll(dir)
	}
}
