package affinity

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func buildPublicEngine(t testing.TB) (*Engine, *Dataset) {
	t.Helper()
	data, err := GenerateSensorData(SensorDataConfig{
		NumSeries:  20,
		NumSamples: 100,
		NumGroups:  4,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(data, Options{Clusters: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng, data
}

// matrix answers a pairwise MEC query: the matrix of m over ids.
func matrix(t testing.TB, eng *Engine, m Measure, ids []SeriesID, method Method) [][]float64 {
	t.Helper()
	out, err := eng.Batch([]QuerySpec{ComputeSpec(m, ids)}, method)
	if err != nil {
		t.Fatalf("%v MEC by %v: %v", m, method, err)
	}
	return out[0].Matrix
}

// pairValue asks one pair's value as a two-series MEC.
func pairValue(t testing.TB, eng *Engine, m Measure, p Pair, method Method) float64 {
	t.Helper()
	out, err := eng.Batch([]QuerySpec{ComputeSpec(m, []SeriesID{p.U, p.V})}, method)
	if err != nil {
		t.Fatal(err)
	}
	return out[0].Matrix[0][1]
}

func TestPublicAPIEndToEnd(t *testing.T) {
	eng, data := buildPublicEngine(t)

	info := eng.Info()
	if info.NumSeries != 20 || info.NumRelationships != data.NumPairs() {
		t.Fatalf("build info %+v", info)
	}
	if eng.Data() != data {
		t.Fatal("Data() should return the original dataset")
	}

	// MEC: mean vector and correlation matrix, in one batch.
	mec, err := eng.Batch([]QuerySpec{ComputeSpec(Mean, data.IDs()), ComputeSpec(Correlation, data.IDs())}, Affine)
	if err != nil {
		t.Fatal(err)
	}
	if means := mec[0].Values; len(means) != 20 || !slices.Equal(mec[0].Series, data.IDs()) {
		t.Fatalf("means %v of series %v", means, mec[0].Series)
	}
	if corr := mec[1].Matrix; len(corr) != 20 || math.Abs(corr[3][3]-1) > 1e-9 {
		t.Fatalf("correlation matrix shape/diagonal wrong")
	}

	// MET via index.
	res, err := eng.Interval(Correlation, GreaterThan(0.9), Index)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("clustered data should contain highly correlated pairs")
	}

	// MER.
	ranged, err := eng.Interval(Covariance, Between(0, math.Inf(1)), Affine)
	if err != nil {
		t.Fatal(err)
	}
	if ranged.Size() == 0 {
		t.Fatal("non-negative covariance range should match pairs")
	}

	// One pair's value across methods.
	p := Pair{U: 0, V: 4}
	exact, approx := pairValue(t, eng, Correlation, p, Naive), pairValue(t, eng, Correlation, p, Affine)
	if math.Abs(exact-approx) > 0.05 {
		t.Fatalf("correlation %v vs %v", exact, approx)
	}
}

func TestPublicDatasetHelpers(t *testing.T) {
	d, err := NewNamedDataset([]string{"INTC", "AMD"}, [][]float64{
		{15.1, 15.3, 15.2, 15.5},
		{6.4, 6.5, 6.4, 6.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name(0) != "INTC" {
		t.Fatalf("name = %q", d.Name(0))
	}
	unnamed, err := NewDataset([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if unnamed.NumSeries() != 2 {
		t.Fatal("NewDataset shape wrong")
	}
	csv, err := ReadCSV(strings.NewReader("a,b\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if csv.NumSamples() != 2 {
		t.Fatal("ReadCSV shape wrong")
	}

	stock, err := GenerateStockData(StockDataConfig{NumSeries: 10, NumSamples: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stock.NumSeries() != 10 {
		t.Fatal("GenerateStockData shape wrong")
	}
}

func TestPublicOptionsVariants(t *testing.T) {
	data, err := GenerateSensorData(SensorDataConfig{NumSeries: 12, NumSamples: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	noIndex, err := New(data, Options{Clusters: 3, SkipIndex: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if noIndex.Info().IndexBuilt {
		t.Fatal("SkipIndex should not build the index")
	}
	if _, err := noIndex.Interval(Covariance, GreaterThan(0), Index); err == nil {
		t.Fatal("index query without index should error")
	}
	if _, err := New(&Dataset{}, Options{}); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil dataset should error")
	}
	if _, err := NewFromSnapshot(nil, strings.NewReader(""), Options{}); err == nil {
		t.Fatal("nil dataset should error on restore")
	}
	if _, err := New(data, Options{DriftBound: math.NaN()}); err == nil {
		t.Fatal("NaN drift bound accepted")
	}
}

func TestPublicAutoAndExplain(t *testing.T) {
	eng, _ := buildPublicEngine(t)

	// Auto answers every query type and matches the plan's chosen method.
	res, plan, err := eng.Explain(IntervalSpec(Correlation, GreaterThan(0.9)), Auto)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !plan.Method.Concrete() {
		t.Fatalf("plan method %v is not concrete", plan.Method)
	}
	fixed, err := eng.Interval(Correlation, GreaterThan(0.9), plan.Method)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != len(fixed.Pairs) {
		t.Fatalf("auto %d pairs, fixed %d", len(res.Pairs), len(fixed.Pairs))
	}
	if plan.ActualRows != res.Size() || plan.Duration <= 0 {
		t.Fatalf("plan actuals not filled: %+v", plan)
	}
	if !strings.Contains(plan.String(), "MET correlation") {
		t.Fatalf("plan renders %q", plan.String())
	}

	// MER spec + fixed-method explain.
	if _, p, err := eng.Explain(IntervalSpec(Covariance, Between(-1, 1)), Naive); err != nil || p.Method != Naive {
		t.Fatalf("fixed-method explain: %v %v", p, err)
	}

	// Auto works on batches and plain queries.
	if _, err := eng.Interval(Mean, Between(-1, 1), Auto); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Batch([]QuerySpec{IntervalSpec(Cosine, GreaterThan(0.5))}, Auto); err != nil {
		t.Fatal(err)
	}
	if _, p, err := eng.Explain(ComputeSpec(Mean, eng.Data().IDs()), Auto); err != nil || p.Method == Index {
		t.Fatalf("auto MEC: %v %v", p, err)
	}
	if _, err := eng.Batch([]QuerySpec{ComputeSpec(Correlation, eng.Data().IDs()[:3])}, Index); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("MEC via index err = %v, want ErrBadMethod", err)
	}

	// Typed errors surface through the facade.
	if _, err := eng.Interval(Correlation, Between(2, 1), Auto); !errors.Is(err, ErrEmptyRange) {
		t.Fatalf("empty range err = %v, want ErrEmptyRange", err)
	}
	if _, err := eng.Interval(Jaccard, GreaterThan(0.5), Index); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("jaccard via index err = %v, want ErrMeasureNotIndexed", err)
	}
	if _, err := eng.Batch([]QuerySpec{TopKSpec(Correlation, 0, true)}, Auto); !errors.Is(err, ErrBadTopK) {
		t.Fatalf("k = 0 err = %v, want ErrBadTopK", err)
	}
}

// TestPublicEngineMethodSet pins the engine's public surface: two
// row-returning questions (Interval, TopK) with one door each, one batch door
// for any mix of interval, top-k and MEC specs, Explain, and the streaming and
// snapshot lifecycle.  A new method is a deliberate API change: add it here.
func TestPublicEngineMethodSet(t *testing.T) {
	want := []string{
		"Advance", "Append", "Batch", "Data", "Explain", "Info", "Interval",
		"PendingSamples", "StreamStats", "TopK", "WriteSnapshot",
	}
	typ := reflect.TypeOf((*Engine)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Engine methods = %v, want %v", got, want)
	}
}
