package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"affinity/internal/baseline"
	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// ThresholdMeasures are the four measures of Fig. 15: (a) correlation
// coefficient, (b) covariance, (c) median and (d) dot product.
var ThresholdMeasures = []measure.Measure{
	measure.Correlation, measure.Covariance, measure.Median, measure.DotProduct,
}

// RangeMeasures are the two measures of Fig. 16: (a) correlation coefficient
// and (b) covariance.
var RangeMeasures = []measure.Measure{measure.Correlation, measure.Covariance}

// DefaultResultSizeQuantiles sweep the threshold so that the result size
// grows from (nearly) empty to the full pair/series set, mirroring the
// x-axes of Figs. 15–16.
var DefaultResultSizeQuantiles = []float64{0.999, 0.8, 0.6, 0.4, 0.2, 0.001}

// DefaultRangeWidths sweep the width of the range query.
var DefaultRangeWidths = []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}

// QueryRow is one measured MET or MER query: the result size (x-axis of
// Figs. 15–16) and the per-query processing time of each method.  NaiveTime
// is the paper's W_N: a scan that reduces every pair from its m raw samples
// (baseline.Naive), once per query.  FilteredNaiveTime is what the engine's
// naive method costs when the query is repeated on one engine: its sweep stage
// classifies against the slid pair-moment column and reduces only the pairs
// it cannot decide — same answer, not the paper's bar; zero for L-measures,
// which the stage does not touch.  DFTTime is zero for measures the W_F
// baseline does not support (everything except the correlation coefficient).
type QueryRow struct {
	QueryType         string // "MET" or "MER"
	Measure           measure.Measure
	Threshold         float64
	Low, High         float64
	ResultSize        int
	NaiveTime         time.Duration
	FilteredNaiveTime time.Duration
	AffineTime        time.Duration
	DFTTime           time.Duration
	ScapeTime         time.Duration
}

// queryEnvironment bundles everything the MET/MER experiments need.
type queryEnvironment struct {
	data   *timeseries.DataMatrix
	engine *core.Engine
	dft    *baseline.DFT
}

// newQueryEnvironment builds the engine (with the SCAPE index over all the
// affine relationships, as in Section 6.4) and precomputes the W_F
// coefficients.
func newQueryEnvironment(d *timeseries.DataMatrix, k int, seed int64) (*queryEnvironment, error) {
	if k <= 0 {
		k = 6
	}
	engine, err := core.Build(d, core.Config{Clusters: k, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: building engine: %w", err)
	}
	wf := baseline.NewDFT(d, baseline.DefaultDFTCoefficients)
	if err := wf.Precompute(); err != nil {
		return nil, fmt.Errorf("experiments: precomputing DFT coefficients: %w", err)
	}
	return &queryEnvironment{data: d, engine: engine, dft: wf}, nil
}

// measureValues returns the sorted naive values of a measure over all pairs
// (or all series for L-measures), used to derive thresholds that hit target
// result sizes.
func (env *queryEnvironment) measureValues(m measure.Measure) ([]float64, error) {
	if m.Class() == measure.LocationClass {
		sweep, err := env.engine.LocationSweepNaive(m)
		if err != nil {
			return nil, err
		}
		values := append([]float64(nil), sweep.Values...)
		sort.Float64s(values)
		return values, nil
	}
	sweep, err := env.engine.PairwiseSweepNaive(m)
	if err != nil {
		return nil, err
	}
	values := make([]float64, 0, len(sweep.Values))
	for _, v := range sweep.Values {
		if !math.IsNaN(v) {
			values = append(values, v)
		}
	}
	sort.Float64s(values)
	return values, nil
}

const (
	queryTimingFloor = 2 * time.Millisecond
	queryTimingReps  = 25
)

// ThresholdQueries reproduces Fig. 15: MET queries over the given measures
// with thresholds swept to produce growing result sizes; each query is timed
// for W_N, W_A, W_F (correlation only) and the SCAPE index.
func ThresholdQueries(d *timeseries.DataMatrix, measures []measure.Measure, quantiles []float64, k int, seed int64) ([]QueryRow, error) {
	env, err := newQueryEnvironment(d, k, seed)
	if err != nil {
		return nil, err
	}
	if len(measures) == 0 {
		measures = ThresholdMeasures
	}
	if len(quantiles) == 0 {
		quantiles = DefaultResultSizeQuantiles
	}
	var rows []QueryRow
	for _, m := range measures {
		values, err := env.measureValues(m)
		if err != nil {
			return nil, err
		}
		if len(values) == 0 {
			continue
		}
		for _, q := range quantiles {
			idx := int(q * float64(len(values)-1))
			tau := values[idx]
			row, err := env.thresholdPoint(m, tau)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func (env *queryEnvironment) thresholdPoint(m measure.Measure, tau float64) (QueryRow, error) {
	return env.timePoint(QueryRow{QueryType: "MET", Measure: m, Threshold: tau}, interval.GreaterThan(tau), func() error {
		_, err := env.dft.PairThreshold(tau, true)
		return err
	})
}

// timePoint times one interval query with every method and fills the row's
// result size and time columns.  W_N is the raw-series scan of the baseline
// package, as in the paper; the engine's naive method is timed beside it.
func (env *queryEnvironment) timePoint(row QueryRow, iv interval.Interval, dft func() error) (QueryRow, error) {
	m := row.Measure
	naive := env.engine.Naive()
	var err error
	row.NaiveTime, err = timeRepeated(queryTimingFloor, queryTimingReps, func() error {
		if m.Class() == measure.LocationClass {
			ids, innerErr := naive.SeriesInterval(m, iv)
			row.ResultSize = len(ids)
			return innerErr
		}
		pairs, innerErr := naive.PairInterval(m, iv)
		row.ResultSize = len(pairs)
		return innerErr
	})
	if err != nil {
		return row, err
	}
	for _, timed := range []struct {
		into   *time.Duration
		method core.Method
	}{
		{&row.FilteredNaiveTime, core.MethodNaive},
		{&row.AffineTime, core.MethodAffine},
		{&row.ScapeTime, core.MethodIndex},
	} {
		if timed.method == core.MethodNaive && m.Class() == measure.LocationClass {
			continue
		}
		*timed.into, err = timeRepeated(queryTimingFloor, queryTimingReps, func() error {
			_, innerErr := env.engine.Interval(m, iv, timed.method)
			return innerErr
		})
		if err != nil {
			return row, err
		}
	}
	if m == measure.Correlation {
		if row.DFTTime, err = timeRepeated(queryTimingFloor, queryTimingReps, dft); err != nil {
			return row, err
		}
	}
	return row, nil
}

// RangeQueries reproduces Fig. 16: MER queries over the given measures with
// ranges of growing width.
func RangeQueries(d *timeseries.DataMatrix, measures []measure.Measure, widths []float64, k int, seed int64) ([]QueryRow, error) {
	env, err := newQueryEnvironment(d, k, seed)
	if err != nil {
		return nil, err
	}
	if len(measures) == 0 {
		measures = RangeMeasures
	}
	if len(widths) == 0 {
		widths = DefaultRangeWidths
	}
	var rows []QueryRow
	for _, m := range measures {
		values, err := env.measureValues(m)
		if err != nil {
			return nil, err
		}
		if len(values) == 0 {
			continue
		}
		n := len(values)
		for _, w := range widths {
			loIdx := int((0.5 - w/2) * float64(n-1))
			hiIdx := int((0.5 + w/2) * float64(n-1))
			if loIdx < 0 {
				loIdx = 0
			}
			if hiIdx > n-1 {
				hiIdx = n - 1
			}
			row, err := env.rangePoint(m, values[loIdx], values[hiIdx])
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func (env *queryEnvironment) rangePoint(m measure.Measure, lo, hi float64) (QueryRow, error) {
	return env.timePoint(QueryRow{QueryType: "MER", Measure: m, Low: lo, High: hi}, interval.Between(lo, hi), func() error {
		_, err := env.dft.PairRange(lo, hi)
		return err
	})
}

// Fig15 reproduces Fig. 15 (MET queries on sensor-data).
func Fig15(s Scale) ([]QueryRow, error) {
	sensor, err := GenerateSensorOnly(s)
	if err != nil {
		return nil, err
	}
	return ThresholdQueries(sensor, nil, nil, 6, s.Seed)
}

// Fig16 reproduces Fig. 16 (MER queries on sensor-data).
func Fig16(s Scale) ([]QueryRow, error) {
	sensor, err := GenerateSensorOnly(s)
	if err != nil {
		return nil, err
	}
	return RangeQueries(sensor, nil, nil, 6, s.Seed)
}

// SpeedupRow is one row of Table 4: the SCAPE index's speedup over W_N, W_A
// and (for the correlation coefficient) W_F when the query returns the
// maximum-size result set.
type SpeedupRow struct {
	QueryType       string
	Measure         measure.Measure
	ResultSize      int
	SpeedupVsNaive  float64
	SpeedupVsAffine float64
	SpeedupVsDFT    float64 // 0 when W_F does not support the measure
}

// Table4 reproduces Table 4 on sensor-data: maximum-result-size MET queries
// over {correlation, covariance, dot product, median} and MER queries over
// {correlation, covariance}.
func Table4(s Scale) ([]SpeedupRow, error) {
	sensor, err := GenerateSensorOnly(s)
	if err != nil {
		return nil, err
	}

	metMeasures := []measure.Measure{measure.Correlation, measure.Covariance, measure.DotProduct, measure.Median}
	metRows, err := ThresholdQueries(sensor, metMeasures, []float64{0.001}, 6, s.Seed)
	if err != nil {
		return nil, err
	}
	merRows, err := RangeQueries(sensor, RangeMeasures, []float64{1.0}, 6, s.Seed)
	if err != nil {
		return nil, err
	}

	var out []SpeedupRow
	for _, r := range append(metRows, merRows...) {
		row := SpeedupRow{
			QueryType:       r.QueryType,
			Measure:         r.Measure,
			ResultSize:      r.ResultSize,
			SpeedupVsNaive:  speedup(r.NaiveTime, r.ScapeTime),
			SpeedupVsAffine: speedup(r.AffineTime, r.ScapeTime),
		}
		if r.DFTTime > 0 {
			row.SpeedupVsDFT = speedup(r.DFTTime, r.ScapeTime)
		}
		out = append(out, row)
	}
	return out, nil
}
