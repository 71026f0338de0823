package experiments

import (
	"errors"
	"testing"
	"time"

	"affinity/internal/measure"
)

// testScale keeps experiment tests fast: tiny datasets exercise every code
// path without paying full benchmark cost.
var testScale = Scale{SeriesDivisor: 40, SampleDivisor: 10, Seed: 7}

func TestGenerateDatasetsAndTable3(t *testing.T) {
	ds, err := GenerateDatasets(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Sensor.NumSeries() < 8 || ds.Stock.NumSeries() < 8 {
		t.Fatal("scaled datasets too small")
	}
	rows, err := Table3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table3 rows = %d", len(rows))
	}
	if rows[0].Name != "sensor-data" || rows[1].Name != "stock-data" {
		t.Fatalf("Table3 names = %v, %v", rows[0].Name, rows[1].Name)
	}
	for _, r := range rows {
		if r.MaxAffineRelationships != r.NumSeries*(r.NumSeries-1)/2 {
			t.Fatalf("inconsistent characteristics %+v", r)
		}
	}
}

func TestTradeoffSweepShape(t *testing.T) {
	rows, err := Fig9(testScale, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(TradeoffMeasures) {
		t.Fatalf("rows = %d, want %d", len(rows), 2*len(TradeoffMeasures))
	}
	for _, r := range rows {
		if r.NaiveTime <= 0 || r.AffineTime <= 0 {
			t.Fatalf("non-positive times in %+v", r)
		}
		if r.RMSEPct < 0 {
			t.Fatalf("negative RMSE in %+v", r)
		}
		if r.Dataset != "sensor-data" {
			t.Fatalf("dataset name %q", r.Dataset)
		}
		// Accuracy claim: covariance and mean estimates are essentially exact
		// even at the smallest k (the paper reports RMSE ~1e-12).
		if (r.Measure == measure.Covariance || r.Measure == measure.Mean) && r.RMSEPct > 1 {
			t.Fatalf("%v RMSE %.4f%% unexpectedly high", r.Measure, r.RMSEPct)
		}
	}
}

func TestFig10AndFig11ShareRows(t *testing.T) {
	rows10, err := Fig10(testScale, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	rows11, err := Fig11(testScale, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows10) != len(rows11) {
		t.Fatalf("Fig10 %d rows vs Fig11 %d rows", len(rows10), len(rows11))
	}
	for _, r := range rows10 {
		if r.Dataset != "stock-data" {
			t.Fatalf("dataset name %q", r.Dataset)
		}
	}
}

func TestOnlineWorkloadShape(t *testing.T) {
	ds, err := GenerateDatasets(testScale)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := OnlineWorkload("sensor-data", ds.Sensor, []int{20, 40}, OnlineConfig{Clusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].NumQueries != 20 || rows[1].NumQueries != 40 {
		t.Fatalf("query counts %+v", rows)
	}
	// The workload grows by operation count (the prefixes asserted above).
	// The two rows' wall times are sub-millisecond and invert on a loaded
	// machine, so only each row's own consistency is checked.
	for _, r := range rows {
		if r.NaiveTime <= 0 || r.AffineTime <= 0 {
			t.Fatalf("non-positive times %+v", r)
		}
		if want := float64(r.NaiveTime) / float64(r.AffineTime); r.Speedup != want {
			t.Fatalf("speedup %v is not NaiveTime/AffineTime = %v: %+v", r.Speedup, want, r)
		}
	}
}

func TestFig12SmallScale(t *testing.T) {
	rows, err := Fig12(testScale, []int{15, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 datasets x 2 counts)", len(rows))
	}
}

func TestSymexScalability(t *testing.T) {
	ds, err := GenerateDatasets(testScale)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{20, 60, 120}
	rows, err := SymexScalability("sensor-data", ds.Sensor, counts, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(counts) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Relationships != counts[i] && r.Relationships != ds.Sensor.NumPairs() {
			t.Fatalf("row %d relationships = %d", i, r.Relationships)
		}
		if r.SymexTime <= 0 || r.SymexPlusTime <= 0 {
			t.Fatalf("non-positive times %+v", r)
		}
	}
	// Oversized counts and non-positive counts are handled.
	rows, err = SymexScalability("sensor-data", ds.Sensor, []int{0, 10 * ds.Sensor.NumPairs()}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Relationships != ds.Sensor.NumPairs() {
		t.Fatalf("clamped rows = %+v", rows)
	}
}

func TestFig13DefaultSweep(t *testing.T) {
	rows, err := Fig13(Scale{SeriesDivisor: 60, SampleDivisor: 12, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 (2 datasets x 5 points)", len(rows))
	}
}

func TestIndexConstruction(t *testing.T) {
	sensor, err := GenerateSensorOnly(testScale)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := IndexConstruction(sensor, []int{30, 60}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CovarianceTime <= 0 || r.MeanTime <= 0 {
			t.Fatalf("non-positive times %+v", r)
		}
	}
	if _, err := Fig14(testScale, []int{25}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdAndRangeQueries(t *testing.T) {
	sensor, err := GenerateSensorOnly(testScale)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ThresholdQueries(sensor, nil, []float64{0.9, 0.1}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(ThresholdMeasures) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.QueryType != "MET" {
			t.Fatalf("query type %q", r.QueryType)
		}
		if r.NaiveTime <= 0 || r.AffineTime <= 0 || r.ScapeTime <= 0 {
			t.Fatalf("non-positive times %+v", r)
		}
		if r.Measure == measure.Correlation && r.DFTTime <= 0 {
			t.Fatal("W_F should be measured for the correlation coefficient")
		}
		if r.Measure != measure.Correlation && r.DFTTime != 0 {
			t.Fatalf("W_F measured for unsupported measure %v", r.Measure)
		}
		// The engine's filtered naive method is its own column next to the
		// paper's raw-series W_N, and only for the measures it applies to.
		if pairwise := r.Measure.Class() != measure.LocationClass; (r.FilteredNaiveTime > 0) != pairwise {
			t.Fatalf("filtered naive time %v for %v", r.FilteredNaiveTime, r.Measure)
		}
	}

	rangeRows, err := RangeQueries(sensor, nil, []float64{0.3, 0.9}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rangeRows) != 2*len(RangeMeasures) {
		t.Fatalf("range rows = %d", len(rangeRows))
	}
	for _, r := range rangeRows {
		if r.QueryType != "MER" {
			t.Fatalf("query type %q", r.QueryType)
		}
		if r.Low > r.High {
			t.Fatalf("inverted range %+v", r)
		}
	}
}

func TestTable4(t *testing.T) {
	rows, err := Table4(testScale)
	if err != nil {
		t.Fatal(err)
	}
	// 4 MET measures + 2 MER measures.
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupVsNaive <= 0 || r.SpeedupVsAffine <= 0 {
			t.Fatalf("non-positive speedups %+v", r)
		}
		if r.Measure == measure.Correlation && r.SpeedupVsDFT <= 0 {
			t.Fatalf("correlation row missing W_F speedup: %+v", r)
		}
		if r.Measure != measure.Correlation && r.SpeedupVsDFT != 0 {
			t.Fatalf("unexpected W_F speedup for %v", r.Measure)
		}
	}
}

func TestAblations(t *testing.T) {
	sensor, err := GenerateSensorOnly(testScale)
	if err != nil {
		t.Fatal(err)
	}
	cacheRow, err := AblationPinvCache("sensor-data", sensor, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cacheRow.PinvWithCache >= cacheRow.PinvWithoutCache {
		t.Fatalf("cache should reduce pseudo-inverse computations: %+v", cacheRow)
	}
	if cacheRow.Relationships != sensor.NumPairs() {
		t.Fatalf("relationships = %d", cacheRow.Relationships)
	}
}

func TestTimingHelpers(t *testing.T) {
	d, err := timeRepeated(time.Millisecond, 5, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Fatal("negative duration")
	}
	wantErr := errors.New("boom")
	if _, err := timeRepeated(time.Millisecond, 5, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, err := timeRepeated(time.Millisecond, 0, func() error { return nil }); err != nil {
		t.Fatal("maxReps<1 should be clamped")
	}
	if speedup(time.Second, 0) != 0 {
		t.Fatal("zero denominator should yield 0")
	}
	if speedup(2*time.Second, time.Second) != 2 {
		t.Fatal("speedup arithmetic wrong")
	}
}
