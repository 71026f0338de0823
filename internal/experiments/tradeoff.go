package experiments

import (
	"fmt"
	"time"

	"affinity/internal/core"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// TradeoffMeasures are the five measures of Figs. 9–11.
var TradeoffMeasures = []measure.Measure{
	measure.Mean, measure.Median, measure.Mode, measure.Covariance, measure.DotProduct,
}

// TradeoffClusterSweep is the k sweep of Figs. 9–11.
var TradeoffClusterSweep = []int{6, 10, 14, 18, 22}

// TradeoffRow is one point of Fig. 9 / Fig. 10 (speedup and %RMSE vs k) and
// Fig. 11 (absolute W_N and W_A times).
type TradeoffRow struct {
	Dataset    string
	Measure    measure.Measure
	Clusters   int
	NaiveTime  time.Duration
	AffineTime time.Duration
	Speedup    float64
	RMSEPct    float64
}

// TradeoffSweep reproduces the efficiency/accuracy trade-off experiment: for
// every number of clusters k and every measure it computes the measure over
// the whole dataset with W_N and with W_A (the affine relationships are
// pre-computed once per k, exactly as in the paper) and reports the speedup
// and the percentage RMSE of Eq. 16.
func TradeoffSweep(name string, d *timeseries.DataMatrix, ks []int, seed int64) ([]TradeoffRow, error) {
	if len(ks) == 0 {
		ks = TradeoffClusterSweep
	}
	var rows []TradeoffRow
	for _, k := range ks {
		if k > d.NumSeries() {
			continue
		}
		engine, err := core.Build(d, core.Config{Clusters: k, Seed: seed, SkipIndex: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: building engine (k=%d): %w", k, err)
		}
		for _, m := range TradeoffMeasures {
			row, err := tradeoffPoint(name, engine, m, k)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func tradeoffPoint(name string, engine *core.Engine, m measure.Measure, k int) (TradeoffRow, error) {
	row := TradeoffRow{Dataset: name, Measure: m, Clusters: k}

	if m.Class() == measure.LocationClass {
		var truth, approx *core.LocationSweepResult
		naiveTime, err := timeOnce(func() error {
			var innerErr error
			truth, innerErr = engine.LocationSweepNaive(m)
			return innerErr
		})
		if err != nil {
			return row, err
		}
		affineTime, err := timeOnce(func() error {
			var innerErr error
			approx, innerErr = engine.LocationSweepAffine(m)
			return innerErr
		})
		if err != nil {
			return row, err
		}
		rmse, err := core.SweepRMSE(truth.Values, approx.Values)
		if err != nil {
			return row, err
		}
		row.NaiveTime = naiveTime
		row.AffineTime = affineTime
		row.Speedup = speedup(naiveTime, affineTime)
		row.RMSEPct = rmse
		return row, nil
	}

	var truth, approx *core.PairSweepResult
	naiveTime, err := timeOnce(func() error {
		var innerErr error
		truth, innerErr = engine.PairwiseSweepNaive(m)
		return innerErr
	})
	if err != nil {
		return row, err
	}
	affineTime, err := timeOnce(func() error {
		var innerErr error
		approx, innerErr = engine.PairwiseSweepAffine(m)
		return innerErr
	})
	if err != nil {
		return row, err
	}
	rmse, err := core.SweepRMSE(truth.Values, approx.Values)
	if err != nil {
		return row, err
	}
	row.NaiveTime = naiveTime
	row.AffineTime = affineTime
	row.Speedup = speedup(naiveTime, affineTime)
	row.RMSEPct = rmse
	return row, nil
}

// Fig9 runs the trade-off sweep on sensor-data (Fig. 9 of the paper).
func Fig9(s Scale, ks []int) ([]TradeoffRow, error) {
	sensor, err := GenerateSensorOnly(s)
	if err != nil {
		return nil, err
	}
	return TradeoffSweep("sensor-data", sensor, ks, s.Seed)
}

// Fig10 runs the trade-off sweep on stock-data (Fig. 10 of the paper).
func Fig10(s Scale, ks []int) ([]TradeoffRow, error) {
	ds, err := GenerateDatasets(s)
	if err != nil {
		return nil, err
	}
	return TradeoffSweep("stock-data", ds.Stock, ks, s.Seed)
}

// Fig11 reports the absolute W_N and W_A times on stock-data (Fig. 11 of the
// paper); the rows are identical to Fig10's, the figure just plots absolute
// times instead of the speedup.
func Fig11(s Scale, ks []int) ([]TradeoffRow, error) {
	return Fig10(s, ks)
}
