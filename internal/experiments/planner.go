package experiments

import (
	"errors"
	"fmt"
	"time"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/scape"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// This file implements the planner crossover experiment behind the "planner"
// id of cmd/affinity-bench: one MET query swept across thresholds spanning
// near-empty to full result sets, timed under every fixed method and under
// MethodAuto, with the planner's choice and estimates recorded per step.
// It is the calibration harness for plan.DefaultCostModel: the recorded
// fixed-method timings show where the true crossovers sit, and the auto
// column shows whether the model lands on the right side of them.

// DefaultPlannerTaus spans a correlation threshold from highly selective to
// unselective (the full sweep direction of Fig. 15).
var DefaultPlannerTaus = []float64{0.99, 0.95, 0.9, 0.8, 0.6, 0.4, 0.2, 0.0, -0.5}

// PlannerRow reports one threshold step of the selectivity sweep.
type PlannerRow struct {
	Measure stats.Measure
	Tau     float64

	// ResultSize is the exact result size of the affine-family methods and
	// SelectivityPct its share of all sequence pairs.
	ResultSize     int
	SelectivityPct float64

	// EstimatedRows and Candidates are the planner's selectivity estimate;
	// AutoChoice is the method it picked.
	EstimatedRows int
	Candidates    int
	AutoChoice    string

	// Per-method average query times (auto includes planning).
	NaiveTime  time.Duration
	AffineTime time.Duration
	IndexTime  time.Duration
	AutoTime   time.Duration
}

// PlannerSweep builds one engine on the dataset and runs the threshold sweep
// for the given measure.  Every step asserts that the auto result equals the
// chosen fixed method's result before any timing is reported.
func PlannerSweep(d *timeseries.DataMatrix, m stats.Measure, clusters int, seed int64, taus []float64) ([]PlannerRow, error) {
	if len(taus) == 0 {
		taus = DefaultPlannerTaus
	}
	eng, err := core.Build(d, core.Config{Clusters: clusters, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: planner build: %w", err)
	}
	numPairs := d.NumPairs()

	rows := make([]PlannerRow, 0, len(taus))
	for _, tau := range taus {
		row := PlannerRow{Measure: m, Tau: tau}
		spec := plan.Threshold(m, tau, scape.Above)

		autoRes, p, err := eng.Explain(spec, core.MethodAuto)
		if err != nil {
			return nil, err
		}
		row.EstimatedRows = p.EstimatedRows
		row.Candidates = p.Candidates
		row.AutoChoice = p.Method.String()

		chosen, err := eng.Interval(m, interval.GreaterThan(tau), p.Method)
		if err != nil {
			return nil, err
		}
		if err := samePairsExact(autoRes.Pairs, chosen.Pairs); err != nil {
			return nil, fmt.Errorf("experiments: tau %v: auto result differs from %v: %w", tau, p.Method, err)
		}
		row.ResultSize = chosen.Size()
		if numPairs > 0 {
			row.SelectivityPct = 100 * float64(row.ResultSize) / float64(numPairs)
		}

		timings := []struct {
			out    *time.Duration
			method core.Method
		}{
			{&row.NaiveTime, core.MethodNaive},
			{&row.AffineTime, core.MethodAffine},
			{&row.IndexTime, core.MethodIndex},
			{&row.AutoTime, core.MethodAuto},
		}
		for _, tm := range timings {
			method := tm.method
			*tm.out, err = timeRepeated(20*time.Millisecond, 16, func() error {
				_, err := eng.Interval(m, interval.GreaterThan(tau), method)
				return err
			})
			if errors.Is(err, core.ErrMeasureNotIndexed) {
				// Un-indexable measure (Jaccard): the index column stays 0 and
				// the sweep still records the methods the planner can choose.
				*tm.out = 0
				continue
			}
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// samePairsExact checks entry-for-entry equality (membership and order) of
// two result sets.
func samePairsExact(a, b []timeseries.Pair) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d entries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("entry %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}
