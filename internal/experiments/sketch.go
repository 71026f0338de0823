package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/sketch"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// SketchWidths are the sketch widths d the prescreen experiment sweeps — the
// StatStream ballpark, bracketing DefaultCoefficients.
var SketchWidths = []int{8, 16, 32}

// SketchMeasures are the measures the prescreen experiment times: the raw
// covariance base, a covariance-derived measure (correlation) and a
// dot-product-derived one (cosine), so both base kernels and the
// monotone-transform lifting are on the clock.
var SketchMeasures = []stats.Measure{stats.Covariance, stats.Correlation, stats.Cosine}

// SketchSelectivities are the target result fractions of the interval
// predicates: the prescreen should win at selective predicates and gracefully
// approach parity as the predicate admits everything.
var SketchSelectivities = []float64{0.01, 0.05, 0.10, 0.25, 0.50}

// SketchRow is one (measure, d, selectivity) point of the filter-and-refine
// experiment.
type SketchRow struct {
	Dataset      string
	Measure      stats.Measure
	Coefficients int
	// TargetSel is the requested result fraction; Rows the actual result size
	// of the quantile-placed predicate over Pairs pairs.
	TargetSel   float64
	Rows, Pairs int
	// AmbiguousFrac is the fraction of pairs the sketch could not classify
	// definitively and handed on to the pair-moment column;
	// ColumnAmbiguousFrac the fraction the column alone, on an engine without
	// sketches, sent to the exact kernels.
	AmbiguousFrac, ColumnAmbiguousFrac float64
	// ExactTime is the best-of-reps wall time of the raw-series W_N scan on
	// the blocked kernels (the PR 7 tier, baseline.Naive.PairInterval);
	// ColumnTime of the engine's naive sweep with the pair-moment column as
	// its only bound provider; SketchTime of the same sweep with the sketch in
	// front of the column.  Speedup is ExactTime/SketchTime, SketchGain
	// ColumnTime/SketchTime: what the sketch tier buys once the column exists.
	ExactTime, ColumnTime, SketchTime time.Duration
	Speedup, SketchGain               float64
}

// SketchPrescreen runs the filter-and-refine experiment on one dataset: for
// every sketch width and measure it places interval predicates at quantiles
// of the exact value distribution and times the engine's naive sweep — with
// the sketch in front of the pair-moment column, and with the column alone —
// against the raw-series scan, asserting byte-identical results before any
// timing is reported.
func SketchPrescreen(name string, d *timeseries.DataMatrix, seed int64, reps int) ([]SketchRow, error) {
	if reps < 1 {
		reps = 3
	}
	column, err := core.Build(d, core.Config{Clusters: 6, Seed: seed, SkipIndex: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: building exact engine: %w", err)
	}
	numPairs := d.NumPairs()
	var rows []SketchRow
	for _, width := range SketchWidths {
		eng, err := core.Build(d, core.Config{
			Clusters: 6, Seed: seed, SkipIndex: true,
			Sketch: sketch.Options{Enabled: true, Coefficients: width},
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: building sketch engine (d=%d): %w", width, err)
		}
		for _, m := range SketchMeasures {
			sweep, err := column.PairwiseSweepNaive(m)
			if err != nil {
				return nil, err
			}
			var finite []float64
			for _, v := range sweep.Values {
				if !math.IsNaN(v) {
					finite = append(finite, v)
				}
			}
			sort.Float64s(finite)
			if len(finite) < 4 {
				continue
			}
			for _, sel := range SketchSelectivities {
				q := finite[int((1-sel)*float64(len(finite)-1))]
				iv := interval.GreaterThan(q)
				want, err := column.Naive().PairInterval(m, iv)
				if err != nil {
					return nil, err
				}
				// The filter's contract before its clock is trusted:
				// byte-identical results, checked on untimed runs.
				row := SketchRow{
					Dataset: name, Measure: m, Coefficients: width,
					TargetSel: sel, Rows: len(want), Pairs: numPairs,
				}
				before := eng.StreamStats()
				for _, e := range []*core.Engine{eng, column} {
					got, p, err := e.Explain(plan.Interval(m, iv), core.MethodNaive)
					if err != nil {
						return nil, err
					}
					if !slices.Equal(got.Pairs, want) {
						return nil, fmt.Errorf("experiments: filtered sweep of %v in %v returned %d pairs, the raw-series scan %d",
							m, iv, len(got.Pairs), len(want))
					}
					if e == column && p.SketchedPairs > 0 {
						row.ColumnAmbiguousFrac = float64(p.SketchRefinedPairs) / float64(p.SketchedPairs)
					}
				}
				after := eng.StreamStats()
				if classified := after.SketchDefiniteIn + after.SketchDefiniteOut + after.SketchAmbiguous -
					(before.SketchDefiniteIn + before.SketchDefiniteOut + before.SketchAmbiguous); classified > 0 {
					row.AmbiguousFrac = float64(after.SketchAmbiguous-before.SketchAmbiguous) / float64(classified)
				}
				for r := 0; r < reps; r++ {
					for _, timed := range []struct {
						into *time.Duration
						run  func() error
					}{
						{&row.ExactTime, func() error { _, err := column.Naive().PairInterval(m, iv); return err }},
						{&row.ColumnTime, func() error { _, err := column.Interval(m, iv, core.MethodNaive); return err }},
						{&row.SketchTime, func() error { _, err := eng.Interval(m, iv, core.MethodNaive); return err }},
					} {
						t, err := timeOnce(timed.run)
						if err != nil {
							return nil, err
						}
						if *timed.into == 0 || t < *timed.into {
							*timed.into = t
						}
					}
				}
				if row.SketchTime > 0 {
					row.Speedup = float64(row.ExactTime) / float64(row.SketchTime)
					row.SketchGain = float64(row.ColumnTime) / float64(row.SketchTime)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// SketchExperiment runs the filter-and-refine experiment on sensor-data at
// the given scale.
func SketchExperiment(s Scale, reps int) ([]SketchRow, error) {
	sensor, err := GenerateSensorOnly(s)
	if err != nil {
		return nil, err
	}
	return SketchPrescreen("sensor-data", sensor, s.Seed, reps)
}
