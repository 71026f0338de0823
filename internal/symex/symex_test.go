package symex

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/mat"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// correlatedData generates n series in `groups` correlated groups with m
// samples, mimicking the structure AFCLST exploits.
func correlatedData(t testing.TB, seed int64, groups, n, m int, noise float64) *timeseries.DataMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bases := make([][]float64, groups)
	for g := range bases {
		b := make([]float64, m)
		for i := range b {
			b[i] = math.Sin(float64(i)*0.02*float64(g+1)) + 0.3*math.Cos(float64(i)*0.07*float64(g+1))
		}
		bases[g] = b
	}
	series := make([][]float64, n)
	for s := range series {
		g := s % groups
		scale := 0.5 + rng.Float64()*2
		offset := rng.NormFloat64()
		col := make([]float64, m)
		for i := range col {
			col[i] = scale*bases[g][i] + offset + rng.NormFloat64()*noise
		}
		series[s] = col
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func defaultOptions() Options {
	return Options{
		Cluster:            cluster.Config{K: 3, MaxIterations: 10, MinChanges: 0, Seed: 1},
		CachePseudoInverse: true,
	}
}

func TestComputeCoversAllPairs(t *testing.T) {
	d := correlatedData(t, 1, 3, 14, 60, 0.01)
	res, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	wantPairs := d.NumPairs()
	if res.Len() != wantPairs {
		t.Fatalf("relationships = %d, want %d", res.Len(), wantPairs)
	}
	if res.Stats.NumRelationships != wantPairs {
		t.Fatalf("stats relationships = %d, want %d", res.Stats.NumRelationships, wantPairs)
	}
	// Every pair appears exactly once and is canonical.
	for e, rel := range relMap(res) {
		if !e.Valid() {
			t.Fatalf("non-canonical pair %v", e)
		}
		if rel.Pair != e {
			t.Fatalf("relationship pair %v stored under key %v", rel.Pair, e)
		}
		if a := rel.Transform.A; a[0][0] != 1 || a[1][0] != 0 || rel.Transform.B[0] != 0 {
			t.Fatalf("transform of %v has first column %v, %v, b₁ %v, want 1, 0, 0", e, a[0][0], a[1][0], rel.Transform.B[0])
		}
		if !e.Contains(rel.Common()) || !e.Contains(rel.Other()) || rel.Common() == rel.Other() {
			t.Fatalf("common/other bookkeeping broken for %v: common=%d other=%d", e, rel.Common(), rel.Other())
		}
		if rel.Pivot.Common != rel.Common() {
			t.Fatalf("pivot common %d != relationship common %d", rel.Pivot.Common, rel.Common())
		}
	}
}

func TestComputePivotCountBound(t *testing.T) {
	d := correlatedData(t, 2, 4, 20, 50, 0.02)
	k := 4
	opts := defaultOptions()
	opts.Cluster.K = k
	res, err := Compute(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The number of pivot pairs is bounded by n*k (Section 4).
	if res.Stats.NumPivots > d.NumSeries()*k {
		t.Fatalf("pivots = %d exceeds n*k = %d", res.Stats.NumPivots, d.NumSeries()*k)
	}
	if res.Stats.NumPivots == 0 {
		t.Fatal("no pivots generated")
	}
	// Pivot assignment lists must partition the pair set.
	seen := map[timeseries.Pair]bool{}
	total := 0
	for _, pairs := range pivotPairs(res) {
		for _, e := range pairs {
			if seen[e] {
				t.Fatalf("pair %v assigned to two pivots", e)
			}
			seen[e] = true
			total++
		}
	}
	if total != res.Len() {
		t.Fatalf("pivot assignment covers %d pairs, want %d", total, res.Len())
	}
}

func TestCacheStatsDifferBetweenSymexAndSymexPlus(t *testing.T) {
	d := correlatedData(t, 3, 3, 16, 40, 0.02)

	plain := defaultOptions()
	plain.CachePseudoInverse = false
	resPlain, err := Compute(d, plain)
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Stats.PseudoInverseCacheHits != 0 {
		t.Fatalf("plain SYMEX should have no cache hits, got %d", resPlain.Stats.PseudoInverseCacheHits)
	}
	if resPlain.Stats.PseudoInverseComputations != resPlain.Stats.NumRelationships {
		t.Fatalf("plain SYMEX should compute one pseudo-inverse per relationship: %d vs %d",
			resPlain.Stats.PseudoInverseComputations, resPlain.Stats.NumRelationships)
	}

	cached := defaultOptions()
	resCached, err := Compute(d, cached)
	if err != nil {
		t.Fatal(err)
	}
	// SYMEX+ fits this well-conditioned window by the moment form throughout:
	// no pivot goes through the kernel's pseudo-inverse.
	if resCached.Stats.PseudoInverseComputations != 0 {
		t.Fatalf("SYMEX+ computed %d pseudo-inverses, want 0", resCached.Stats.PseudoInverseComputations)
	}
	if resCached.Stats.PseudoInverseCacheHits != resCached.Stats.NumRelationships {
		t.Fatalf("cache hits = %d, want %d", resCached.Stats.PseudoInverseCacheHits, resCached.Stats.NumRelationships)
	}

	// Both variants explore identically (same clustering seed, same
	// exploration order); SYMEX+'s fits are within the moment form's bound of
	// the exact least-squares fit.
	if resPlain.Len() != resCached.Len() {
		t.Fatal("SYMEX and SYMEX+ disagree on the number of relationships")
	}
	for e, a := range relMap(resPlain) {
		b, ok := relMap(resCached)[e]
		if !ok {
			t.Fatalf("pair %v missing from SYMEX+ result", e)
		}
		if a.Pivot != b.Pivot || a.Flipped != b.Flipped {
			t.Fatalf("pair %v: pivot/orientation mismatch", e)
		}
		common, centre, other := fitColumns(t, d, resCached.Clustering, e, b.Pivot)
		requireWithinFitBound(t, fmt.Sprintf("pair %v", e), common, centre, other, b.Transform)
	}
}

func TestMaxRelationshipsLimit(t *testing.T) {
	d := correlatedData(t, 4, 3, 20, 40, 0.02)
	opts := defaultOptions()
	opts.MaxRelationships = 25
	res, err := Compute(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 25 {
		t.Fatalf("limited run produced %d relationships, want 25", res.Len())
	}
}

func TestRelationshipAccuracyOnCorrelatedData(t *testing.T) {
	// With tightly correlated groups the affine relationships must estimate
	// the covariance of every pair with small relative RMSE (this mirrors the
	// Fig. 9/10 accuracy claims at a small scale).
	d := correlatedData(t, 5, 3, 18, 120, 0.01)
	res, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	var truth, approx []float64
	for e, rel := range relMap(res) {
		op, err := res.PivotMatrix(d, rel.Pivot)
		if err != nil {
			t.Fatal(err)
		}
		v0, _ := measure.VarianceOf(op.Col(0))
		v1, _ := measure.VarianceOf(op.Col(1))
		c01, _ := measure.CovarianceOf(op.Col(0), op.Col(1))
		covOp, _ := mat.NewFromRows([][]float64{{v0, c01}, {c01, v1}})
		est, err := rel.Transform.PropagateCovariance(covOp)
		if err != nil {
			t.Fatal(err)
		}
		su, _ := d.Series(e.U)
		sv, _ := d.Series(e.V)
		want, _ := measure.CovarianceOf(su, sv)
		truth = append(truth, want)
		approx = append(approx, est)
	}
	rmse, err := measure.RMSE(truth, approx)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 5 {
		t.Fatalf("covariance RMSE %.2f%% too high for strongly correlated data", rmse)
	}
}

func TestComputeReusesProvidedClustering(t *testing.T) {
	d := correlatedData(t, 6, 2, 10, 30, 0.02)
	clustering, err := cluster.Run(d, cluster.Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Clustering: clustering, CachePseudoInverse: true}
	res, err := Compute(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clustering != clustering {
		t.Fatal("provided clustering should be reused")
	}
}

func TestComputeErrors(t *testing.T) {
	single, _ := timeseries.NewDataMatrix([][]float64{{1, 2, 3}})
	if _, err := Compute(single, defaultOptions()); !errors.Is(err, ErrTooFewSeries) {
		t.Fatalf("single series err = %v", err)
	}
	empty := &timeseries.DataMatrix{}
	if _, err := Compute(empty, defaultOptions()); err == nil {
		t.Fatal("empty data should error")
	}
	d := correlatedData(t, 7, 2, 6, 20, 0.02)
	bad := Options{Cluster: cluster.Config{K: 0}}
	if _, err := Compute(d, bad); err == nil {
		t.Fatal("invalid cluster config should error")
	}
}

func TestComputeSmallestValidInput(t *testing.T) {
	d := correlatedData(t, 8, 1, 2, 15, 0.01)
	opts := Options{Cluster: cluster.Config{K: 1, Seed: 1}, CachePseudoInverse: true}
	res, err := Compute(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("n=2 should yield exactly one relationship, got %d", res.Len())
	}
}

func TestPivotMatrixErrors(t *testing.T) {
	d := correlatedData(t, 9, 2, 8, 25, 0.02)
	res, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.PivotMatrix(d, Pivot{Common: 0, Cluster: 99}); err == nil {
		t.Fatal("unknown cluster should error")
	}
	if _, err := res.PivotMatrix(d, Pivot{Common: 99, Cluster: 0}); err == nil {
		t.Fatal("unknown series should error")
	}
	var anyPivot Pivot
	for p := range pivotPairs(res) {
		anyPivot = p
		break
	}
	op, err := res.PivotMatrix(d, anyPivot)
	if err != nil {
		t.Fatal(err)
	}
	if op.Rows() != d.NumSamples() || op.Cols() != 2 {
		t.Fatalf("pivot matrix dims %dx%d", op.Rows(), op.Cols())
	}
	if anyPivot.String() == "" {
		t.Fatal("Pivot.String should render")
	}
}

// TestPivotTermsMatchScalarPrimitives: the one assembly of the pivot terms is
// the two-pass scalar reductions of each pivot's two columns, bit for bit, for
// every layout pivot and at any parallelism, and it rejects a pivot whose
// columns do not fit the window.
func TestPivotTermsMatchScalarPrimitives(t *testing.T) {
	d := correlatedData(t, 11, 3, 16, 73, 0.05)
	res, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pivots := res.Layout().Pivots()
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for _, p := range []int{1, 2, 8} {
		terms, err := res.PivotTerms(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(terms) != len(pivots) {
			t.Fatalf("P=%d: %d terms for %d pivots", p, len(terms), len(pivots))
		}
		for pi, pivot := range pivots {
			x, r, err := res.PivotColumns(d, pivot)
			if err != nil {
				t.Fatal(err)
			}
			varX, _ := measure.VarianceOf(x)
			varR, _ := measure.VarianceOf(r)
			cov, _ := measure.CovarianceOf(x, r)
			sqX, _ := measure.DotProductOf(x, x)
			sqR, _ := measure.DotProductOf(r, r)
			dot, _ := measure.DotProductOf(x, r)
			want := [8]float64{varX, cov, varR, sqX, dot, sqR, measure.SumOf(x), measure.SumOf(r)}
			got := terms[pi]
			have := [8]float64{got.Cov[0], got.Cov[1], got.Cov[2], got.Dot[0], got.Dot[1], got.Dot[2], got.ColSums[0], got.ColSums[1]}
			for i := range want {
				if bits(have[i]) != bits(want[i]) {
					t.Fatalf("P=%d pivot %v: terms %v, scalar primitives %v", p, pivot, have, want)
				}
			}
			if got.NumSamples != d.NumSamples() {
				t.Fatalf("P=%d pivot %v: %d samples, want %d", p, pivot, got.NumSamples, d.NumSamples())
			}
		}
	}

	short := &cluster.Result{Centers: make([][]float64, len(res.Clustering.Centers)), Assignment: res.Clustering.Assignment}
	for l, c := range res.Clustering.Centers {
		short.Centers[l] = c[:len(c)-1]
	}
	if _, err := NewResult(res.Layout(), short, slices.Clone(res.rels)).PivotTerms(d, 2); !errors.Is(err, timeseries.ErrShapeMismatch) {
		t.Fatalf("short centers: %v, want timeseries.ErrShapeMismatch", err)
	}
}

// TestWindowMemoUnderConcurrentWindows: goroutines asking one layout for the
// pivot terms and centre covariances of two windows at once each get their
// own window's values (a direct reduction's) — the memo never hands one window
// another's, whichever entry the layout holds when it is asked.
func TestWindowMemoUnderConcurrentWindows(t *testing.T) {
	d := correlatedData(t, 12, 3, 12, 50, 0.05)
	res, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	windows := []*timeseries.DataMatrix{d, slideData(t, d, 13, 7)}
	wantTerms := make([][]measure.PivotTerms, len(windows))
	wantCovs := make([][]float64, len(windows))
	for i, w := range windows {
		var termsErr, covErr error
		wantTerms[i], termsErr, wantCovs[i], covErr = reduceCrossMoments(w, res.Layout().Pivots(), res.Clustering, 1)
		if termsErr != nil || covErr != nil {
			t.Fatal(termsErr, covErr)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w := (g + i) % len(windows)
				terms, err := res.PivotTerms(windows[w], 2)
				covs, err2 := res.CenterCovariances(windows[w], 2)
				if err != nil || err2 != nil || !reflect.DeepEqual(terms, wantTerms[w]) || !reflect.DeepEqual(covs, wantCovs[w]) {
					t.Errorf("goroutine %d, window %d: the memo returned another window's reductions (%v, %v)", g, w, err, err2)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRelationshipLookup(t *testing.T) {
	d := correlatedData(t, 10, 2, 8, 25, 0.02)
	res, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Relationship(timeseries.Pair{U: 0, V: 1}); !ok {
		t.Fatal("existing pair should be found")
	}
	if _, ok := res.Relationship(timeseries.Pair{U: 0, V: 99}); ok {
		t.Fatal("missing pair should not be found")
	}
}
