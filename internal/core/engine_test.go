package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

func buildTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	d, err := dataset.GenerateSensor(dataset.SensorConfig{
		NumSeries:  24,
		NumSamples: 120,
		NumGroups:  4,
		Noise:      0.02,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// buildLimited builds an engine on the first limit relationships SYMEX+
// explores over cfg's clustering (all of them at limit 0); with
// cfg.AssignedPairsOnly set, the engine answers over those pairs alone.
func buildLimited(t testing.TB, d *timeseries.DataMatrix, cfg Config, limit int) *Engine {
	t.Helper()
	e, err := Build(d, cfg)
	if err == nil && limit > 0 {
		var rel *symex.Result
		rel, err = symex.Compute(d, symex.Options{Clustering: e.Relationships().Clustering, CachePseudoInverse: true,
			MaxRelationships: limit, Parallelism: cfg.Parallelism})
		if err == nil {
			e, err = BuildFromRelationships(d, cfg, rel)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runSpecs answers a batch of interval/top-k specs against the engine's
// current epoch — the door the public facade's Batch is.
func runSpecs(e *Engine, specs []plan.QuerySpec, method Method) ([]QueryResult, error) {
	out, _, err := Run(e.View(), specs, method, false)
	return out, err
}

func TestBuildInfo(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	info := e.Info()
	if info.NumSeries != 24 || info.NumSamples != 120 {
		t.Fatalf("info shape %+v", info)
	}
	if info.NumPairs != 24*23/2 {
		t.Fatalf("NumPairs = %d", info.NumPairs)
	}
	if info.NumRelationships != info.NumPairs {
		t.Fatalf("relationships %d != pairs %d", info.NumRelationships, info.NumPairs)
	}
	if info.NumPivots == 0 || info.NumPivots > 24*4 {
		t.Fatalf("NumPivots = %d", info.NumPivots)
	}
	if !info.IndexBuilt || info.IndexPivotNodes != info.NumPivots {
		t.Fatalf("index info %+v", info)
	}
	if info.TotalDuration <= 0 {
		t.Fatal("durations should be recorded")
	}
	if e.Data() == nil || e.Relationships() == nil || e.Index() == nil || e.Naive() == nil {
		t.Fatal("accessors should be populated")
	}
}

func TestBuildWithoutIndex(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2, SkipIndex: true})
	if e.Index() != nil || e.Info().IndexBuilt {
		t.Fatal("index should not be built")
	}
	if _, err := e.Interval(measure.Covariance, interval.GreaterThan(0), MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("index query err = %v", err)
	}
	if _, err := e.Interval(measure.Covariance, interval.Between(0, 1), MethodIndex); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("index range err = %v", err)
	}
}

func TestBuildValidation(t *testing.T) {
	empty := &timeseries.DataMatrix{}
	if _, err := Build(empty, Config{}); err == nil {
		t.Fatal("empty data should error")
	}
	single, _ := timeseries.NewDataMatrix([][]float64{{1, 2, 3}})
	if _, err := Build(single, Config{Clusters: 1}); err == nil {
		t.Fatal("single series should error (no pairs)")
	}
}

// TestPlainSymexBuild: an engine assembled from plain SYMEX relationships
// (the Fig 13 ablation's fits, one pseudo-inverse per relationship) answers
// like the SYMEX+ engine, whose moment-form fits agree to about 1e-12 of each
// series' standard deviation.
func TestPlainSymexBuild(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 2})
	rel := e.Relationships()
	plainRel, err := symex.Compute(e.Data(), symex.Options{Clustering: rel.Clustering})
	if err != nil {
		t.Fatal(err)
	}
	if plainRel.Stats.PseudoInverseCacheHits != 0 {
		t.Fatalf("plain SYMEX should have no cache hits, got %d", plainRel.Stats.PseudoInverseCacheHits)
	}
	if plainRel.Stats.PseudoInverseComputations != plainRel.Stats.NumRelationships {
		t.Fatalf("pseudo-inverse count %d != relationships %d",
			plainRel.Stats.PseudoInverseComputations, plainRel.Stats.NumRelationships)
	}
	plain, err := BuildFromRelationships(e.Data(), Config{}, plainRel)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Info().NumRelationships != e.Info().NumRelationships {
		t.Fatalf("relationships %d != %d", plain.Info().NumRelationships, e.Info().NumRelationships)
	}
	ids := e.Data().IDs()
	want, err := e.ComputePairwise(measure.Correlation, ids, MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plain.ComputePairwise(measure.Correlation, ids, MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(got[i][j]-want[i][j]) > 1e-9 {
				t.Fatalf("correlation (%d,%d): plain %v, SYMEX+ %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestComputeLocationAccuracy(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 3})
	ids := e.Data().IDs()

	for _, m := range []measure.Measure{measure.Mean, measure.Median} {
		truth, err := e.ComputeLocation(m, ids, MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := e.ComputeLocation(m, ids, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		rmse, err := measure.RMSE(truth, approx)
		if err != nil {
			t.Fatal(err)
		}
		limit := 1.0 // percent
		if m == measure.Median {
			limit = 6.0
		}
		if rmse > limit {
			t.Fatalf("%v RMSE %.3f%% exceeds %v%%", m, rmse, limit)
		}
	}

	if _, err := e.ComputeLocation(measure.Covariance, ids, MethodNaive); err == nil {
		t.Fatal("T-measure should be rejected")
	}
	if _, err := e.ComputeLocation(measure.Mean, ids, MethodIndex); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("index MEC err = %v", err)
	}
	if _, err := e.ComputeLocation(measure.Mean, []timeseries.SeriesID{999}, MethodAffine); err == nil {
		t.Fatal("invalid id should error")
	}
}

func TestComputePairwiseAccuracy(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 4})
	ids := e.Data().IDs()

	for _, m := range []measure.Measure{measure.Covariance, measure.DotProduct, measure.Correlation, measure.Cosine} {
		truth, err := e.ComputePairwise(m, ids, MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := e.ComputePairwise(m, ids, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		var flatTruth, flatApprox []float64
		for i := range truth {
			for j := i + 1; j < len(truth); j++ {
				if math.IsNaN(truth[i][j]) || math.IsNaN(approx[i][j]) {
					continue
				}
				flatTruth = append(flatTruth, truth[i][j])
				flatApprox = append(flatApprox, approx[i][j])
			}
		}
		rmse, err := measure.RMSE(flatTruth, flatApprox)
		if err != nil {
			t.Fatal(err)
		}
		if rmse > 3 {
			t.Fatalf("%v RMSE %.3f%% too high", m, rmse)
		}
		// Symmetry of the affine response.
		for i := range approx {
			for j := range approx {
				a, b := approx[i][j], approx[j][i]
				if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
					t.Fatalf("%v response not symmetric at (%d,%d)", m, i, j)
				}
			}
		}
	}

	if _, err := e.ComputePairwise(measure.Mean, ids, MethodNaive); err == nil {
		t.Fatal("L-measure should be rejected")
	}
	if _, err := e.ComputePairwise(measure.Covariance, ids, MethodIndex); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("index pairwise MEC err = %v", err)
	}
}

func TestPairwiseDiagonal(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 5})
	ids := []timeseries.SeriesID{0, 1, 2}
	for _, m := range []measure.Measure{measure.Covariance, measure.Correlation, measure.DotProduct, measure.Cosine, measure.HarmonicMean} {
		approx, err := e.ComputePairwise(m, ids, MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := e.ComputePairwise(m, ids, MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if math.Abs(approx[i][i]-truth[i][i]) > 1e-6*(1+math.Abs(truth[i][i])) {
				t.Fatalf("%v diagonal [%d] = %v, want %v", m, i, approx[i][i], truth[i][i])
			}
			// W_A's self values read the window's two-pass moments, the bits
			// of the naive reductions of a series against itself.
			if (m == measure.Covariance || m == measure.DotProduct) && math.Float64bits(approx[i][i]) != math.Float64bits(truth[i][i]) {
				t.Fatalf("%v diagonal [%d] = %x, W_N's %x", m, i, math.Float64bits(approx[i][i]), math.Float64bits(truth[i][i]))
			}
		}
	}
}

// TestCalibrationOfAConstantCenter: a series whose cluster center is constant
// is calibrated to the line a = 0, b = its mean (the degenerate branch of the
// least-squares fit), bit for bit.
func TestCalibrationOfAConstantCenter(t *testing.T) {
	d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 12, NumSamples: 40, NumGroups: 3, Noise: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Build(d, Config{Clusters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := first.Relationships().Clustering
	// The clustering is copied so the built engine's memo is not shared.
	clustering := &cluster.Result{Centers: make([][]float64, len(base.Centers)), Assignment: base.Assignment}
	for l, c := range base.Centers {
		clustering.Centers[l] = slices.Clone(c)
	}
	for j := range clustering.Centers[0] {
		clustering.Centers[0][j] = 0.25
	}
	e, err := Build(d, Config{Clusters: 3, Clustering: clustering})
	if err != nil {
		t.Fatal(err)
	}
	st := e.escapedState()
	members := 0
	for _, id := range d.IDs() {
		omega, err := clustering.Omega(id)
		if err != nil {
			t.Fatal(err)
		}
		if omega != 0 {
			continue
		}
		members++
		s, _ := d.Series(id)
		mean, _ := measure.MeanOf(s)
		if st.calibA[id] != 0 || math.Float64bits(st.calibB[id]) != math.Float64bits(mean) {
			t.Fatalf("series %d against a constant center: a = %v, b = %v, want 0, %v", id, st.calibA[id], st.calibB[id], mean)
		}
	}
	if members == 0 {
		t.Fatal("the constant center has no members")
	}
}

// TestPairValueMethods asks single pairs as two-series MEC queries.
func TestPairValueMethods(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 6})
	pair := []timeseries.SeriesID{0, 5}
	pairValue := func(m measure.Measure, method Method) (float64, error) {
		out, err := runSpecs(e, []plan.QuerySpec{ComputeSpec(m, pair)}, method)
		if err != nil {
			return 0, err
		}
		if out[0].Matrix == nil {
			return 0, fmt.Errorf("%v answered %v, no matrix", m, out[0])
		}
		return out[0].Matrix[0][1], nil
	}
	truth, err := pairValue(measure.Correlation, MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := pairValue(measure.Correlation, MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(truth-approx) > 0.05 {
		t.Fatalf("correlation estimate %v vs truth %v", approx, truth)
	}
	// Non-canonical pair input is canonicalized by the affine path.
	swapped, err := e.escapedState().affinePairValue(measure.Correlation, timeseries.Pair{U: 5, V: 0})
	if err != nil {
		t.Fatal(err)
	}
	if swapped != approx {
		t.Fatalf("non-canonical pair gave %v, want %v", swapped, approx)
	}
	if _, err := pairValue(measure.Mean, MethodNaive); err == nil {
		t.Fatal("an L-measure answered with a matrix")
	}
	if _, err := pairValue(measure.Covariance, MethodIndex); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("index MEC err = %v", err)
	}
	// Jaccard goes through the dot-product-dependent normalizer path.
	jac, err := pairValue(measure.Jaccard, MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	jacTruth, err := pairValue(measure.Jaccard, MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(jac-jacTruth) > 0.05*(1+math.Abs(jacTruth)) {
		t.Fatalf("jaccard estimate %v vs truth %v", jac, jacTruth)
	}
}

func TestThresholdMethodsAgree(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 7})

	for _, m := range []measure.Measure{measure.Covariance, measure.Correlation} {
		// Pick a threshold from the naive value distribution.
		naive, err := e.Interval(m, interval.GreaterThan(0), MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Size() == 0 {
			t.Fatalf("%v: empty naive result; bad test threshold", m)
		}
		affine, err := e.Interval(m, interval.GreaterThan(0), MethodAffine)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := e.Interval(m, interval.GreaterThan(0), MethodIndex)
		if err != nil {
			t.Fatal(err)
		}
		// The affine and index methods share the same estimates, so their
		// result sets must be identical.
		if !samePairSet(affine.Pairs, indexed.Pairs) {
			t.Fatalf("%v: affine and index results differ (%d vs %d)", m, len(affine.Pairs), len(indexed.Pairs))
		}
		// The affine result should closely track the exact result: allow a
		// small symmetric difference caused by approximation at the boundary.
		if diff := symmetricDiff(naive.Pairs, affine.Pairs); float64(diff) > 0.1*float64(len(naive.Pairs))+3 {
			t.Fatalf("%v: affine result differs from naive by %d of %d pairs", m, diff, len(naive.Pairs))
		}
	}
}

func TestRangeMethodsAgree(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 8})
	lo, hi := 0.2, 0.9
	naive, err := e.Interval(measure.Correlation, interval.Between(lo, hi), MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	affine, err := e.Interval(measure.Correlation, interval.Between(lo, hi), MethodAffine)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := e.Interval(measure.Correlation, interval.Between(lo, hi), MethodIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !samePairSet(affine.Pairs, indexed.Pairs) {
		t.Fatalf("affine and index range results differ (%d vs %d)", len(affine.Pairs), len(indexed.Pairs))
	}
	if diff := symmetricDiff(naive.Pairs, affine.Pairs); float64(diff) > 0.15*float64(len(naive.Pairs))+3 {
		t.Fatalf("affine range result differs from naive by %d of %d pairs", diff, len(naive.Pairs))
	}
	if _, err := e.Interval(measure.Correlation, interval.Between(1, 0), MethodNaive); err == nil {
		t.Fatal("inverted range should error")
	}
}

func TestLocationThresholdAndRange(t *testing.T) {
	e := buildTestEngine(t, Config{Clusters: 4, Seed: 9})
	means, err := e.ComputeLocation(measure.Mean, e.Data().IDs(), MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	var tau float64
	for _, v := range means {
		tau += v
	}
	tau /= float64(len(means))

	for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
		res, err := e.Interval(measure.Mean, interval.GreaterThan(tau), method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if len(res.Pairs) != 0 {
			t.Fatalf("%v: location query should return series, not pairs", method)
		}
		for _, id := range res.Series {
			if means[id] <= tau-1e-6*(1+math.Abs(tau)) {
				t.Fatalf("%v: series %d mean %v not above %v", method, id, means[id], tau)
			}
		}

		ranged, err := e.Interval(measure.Mean, interval.Between(tau-1, tau+1), method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for _, id := range ranged.Series {
			if means[id] < tau-1-1e-6 || means[id] > tau+1+1e-6 {
				t.Fatalf("%v: series %d mean %v outside range", method, id, means[id])
			}
		}
	}
	if _, err := e.Interval(measure.Mean, interval.GreaterThan(tau), Method(9)); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("bad method err = %v", err)
	}
	if _, err := e.Interval(measure.Mean, interval.Between(0, 1), Method(9)); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("bad method err = %v", err)
	}
	if _, err := e.Interval(measure.Covariance, interval.GreaterThan(0), Method(9)); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("bad method err = %v", err)
	}
	if _, err := e.Interval(measure.Covariance, interval.Between(0, 1), Method(9)); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("bad method err = %v", err)
	}
}

func TestMethodString(t *testing.T) {
	if MethodNaive.String() != "WN" || MethodAffine.String() != "WA" || MethodIndex.String() != "SCAPE" {
		t.Fatal("method names are wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should still render")
	}
}

func samePairSet(a, b []timeseries.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[timeseries.Pair]bool, len(a))
	for _, p := range a {
		set[p] = true
	}
	for _, p := range b {
		if !set[p] {
			return false
		}
	}
	return true
}

func symmetricDiff(a, b []timeseries.Pair) int {
	setA := make(map[timeseries.Pair]bool, len(a))
	for _, p := range a {
		setA[p] = true
	}
	setB := make(map[timeseries.Pair]bool, len(b))
	for _, p := range b {
		setB[p] = true
	}
	diff := 0
	for p := range setA {
		if !setB[p] {
			diff++
		}
	}
	for p := range setB {
		if !setA[p] {
			diff++
		}
	}
	return diff
}
