package dataset

import (
	"math"
	"testing"

	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

func TestGenerateSensorDefaults(t *testing.T) {
	d, err := GenerateSensor(SensorConfig{Seed: 1, NumSeries: 40, NumSamples: 120})
	if err != nil {
		t.Fatalf("GenerateSensor: %v", err)
	}
	if d.NumSeries() != 40 || d.NumSamples() != 120 {
		t.Fatalf("shape %dx%d", d.NumSamples(), d.NumSeries())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.Name(0) == "" {
		t.Fatal("series should be named")
	}
}

func TestGenerateSensorFullDefaultShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation in short mode")
	}
	d, err := GenerateSensor(SensorConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSeries() != SensorDefaultSeries || d.NumSamples() != SensorDefaultSamples {
		t.Fatalf("default shape %dx%d, want %dx%d",
			d.NumSamples(), d.NumSeries(), SensorDefaultSamples, SensorDefaultSeries)
	}
}

func TestGenerateSensorDeterministic(t *testing.T) {
	a, err := GenerateSensor(SensorConfig{Seed: 7, NumSeries: 10, NumSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSensor(SensorConfig{Seed: 7, NumSeries: 10, NumSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumSeries(); i++ {
		sa, _ := a.Series(timeseries.SeriesID(i))
		sb, _ := b.Series(timeseries.SeriesID(i))
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatal("same seed must produce identical data")
			}
		}
	}
	c, err := GenerateSensor(SensorConfig{Seed: 8, NumSeries: 10, NumSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	s0a, _ := a.Series(0)
	s0c, _ := c.Series(0)
	same := true
	for j := range s0a {
		if s0a[j] != s0c[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should produce different data")
	}
}

func TestGenerateSensorGroupStructure(t *testing.T) {
	// Series in the same group must be much more correlated than series in
	// different groups — that is the property AFCLST exploits.
	cfg := SensorConfig{Seed: 3, NumSeries: 24, NumSamples: 240, NumGroups: 4, Noise: 0.02}
	d, err := GenerateSensor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sameGroup, crossGroup []float64
	for _, e := range d.AllPairs() {
		v, err := correlation(d, e)
		if err != nil {
			continue
		}
		if int(e.U)%cfg.NumGroups == int(e.V)%cfg.NumGroups {
			sameGroup = append(sameGroup, math.Abs(v))
		} else {
			crossGroup = append(crossGroup, math.Abs(v))
		}
	}
	if len(sameGroup) == 0 || len(crossGroup) == 0 {
		t.Fatal("expected both same-group and cross-group pairs")
	}
	meanSame, _ := measure.MeanOf(sameGroup)
	meanCross, _ := measure.MeanOf(crossGroup)
	if meanSame < 0.9 {
		t.Fatalf("same-group |correlation| mean %.3f, want >= 0.9", meanSame)
	}
	if meanSame <= meanCross {
		t.Fatalf("same-group correlation (%.3f) should exceed cross-group (%.3f)", meanSame, meanCross)
	}
}

func TestGenerateStockBasics(t *testing.T) {
	d, err := GenerateStock(StockConfig{Seed: 4, NumSeries: 30, NumSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSeries() != 30 || d.NumSamples() != 200 {
		t.Fatalf("shape %dx%d", d.NumSamples(), d.NumSeries())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Prices must stay positive.
	for _, id := range d.IDs() {
		s, _ := d.Series(id)
		for _, v := range s {
			if v <= 0 {
				t.Fatalf("series %d contains non-positive price %v", id, v)
			}
		}
	}
}

func TestGenerateStockSectorCorrelation(t *testing.T) {
	cfg := StockConfig{Seed: 5, NumSeries: 30, NumSamples: 600, NumSectors: 5}
	d, err := GenerateStock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sameSector, crossSector []float64
	for _, e := range d.AllPairs() {
		v, err := correlation(d, e)
		if err != nil {
			continue
		}
		if int(e.U)%cfg.NumSectors == int(e.V)%cfg.NumSectors {
			sameSector = append(sameSector, v)
		} else {
			crossSector = append(crossSector, v)
		}
	}
	meanSame, _ := measure.MeanOf(sameSector)
	meanCross, _ := measure.MeanOf(crossSector)
	if meanSame <= meanCross {
		t.Fatalf("same-sector correlation (%.3f) should exceed cross-sector (%.3f)", meanSame, meanCross)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateSensor(SensorConfig{NumSamples: 1, NumSeries: 5}); err == nil {
		t.Fatal("too few samples should error")
	}
	if _, err := GenerateStock(StockConfig{NumSamples: 1, NumSeries: 5}); err == nil {
		t.Fatal("too few samples should error")
	}
}

func TestDescribeMatchesTable3Shape(t *testing.T) {
	d, err := GenerateSensor(SensorConfig{Seed: 6, NumSeries: 20, NumSamples: 60})
	if err != nil {
		t.Fatal(err)
	}
	c := Describe("sensor-data", d, SensorSamplingMins)
	if c.NumSeries != 20 || c.SamplesPerSeries != 60 {
		t.Fatalf("characteristics %+v", c)
	}
	if c.MaxAffineRelationships != 20*19/2 {
		t.Fatalf("max relationships = %d", c.MaxAffineRelationships)
	}
	if c.SamplingIntervalMins != 2 {
		t.Fatalf("sampling interval = %v", c.SamplingIntervalMins)
	}
	// The paper-scale numbers (Table 3) follow from the default shapes.
	fullSensor := SensorDefaultSeries * (SensorDefaultSeries - 1) / 2
	if fullSensor != 224115 {
		t.Fatalf("sensor-data max affine relationships = %d, want 224115", fullSensor)
	}
	fullStock := StockDefaultSeries * (StockDefaultSeries - 1) / 2
	if fullStock != 495510 {
		t.Fatalf("stock-data max affine relationships = %d, want 495510", fullStock)
	}
}

func TestScaleConfig(t *testing.T) {
	sc := ScaleConfig{SeriesDivisor: 10, SampleDivisor: 4}
	sensor := sc.ApplySensor(SensorConfig{})
	if sensor.NumSeries != SensorDefaultSeries/10 || sensor.NumSamples != SensorDefaultSamples/4 {
		t.Fatalf("scaled sensor config %+v", sensor)
	}
	stock := sc.ApplyStock(StockConfig{})
	if stock.NumSeries != StockDefaultSeries/10 || stock.NumSamples != StockDefaultSamples/4 {
		t.Fatalf("scaled stock config %+v", stock)
	}
	// Extreme divisors clamp to the minimum usable shape.
	tiny := ScaleConfig{SeriesDivisor: 1000, SampleDivisor: 1000}
	if got := tiny.ApplySensor(SensorConfig{}); got.NumSeries < 8 || got.NumSamples < 32 {
		t.Fatalf("clamped sensor config %+v", got)
	}
	// Divisor 1 (or 0) leaves defaults untouched.
	same := ScaleConfig{}.ApplySensor(SensorConfig{})
	if same.NumSeries != SensorDefaultSeries {
		t.Fatalf("unscaled config %+v", same)
	}
}

// correlation evaluates the correlation coefficient of one pair from the raw
// series.
func correlation(d *timeseries.DataMatrix, e timeseries.Pair) (float64, error) {
	su, err := d.Series(e.U)
	if err != nil {
		return 0, err
	}
	sv, err := d.Series(e.V)
	if err != nil {
		return 0, err
	}
	return measure.EvalPair(measure.Correlation, su, sv)
}
