package scape

import (
	"affinity/internal/baseline"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// testDataset builds a correlated dataset plus its SYMEX+ relationships.
func testDataset(t testing.TB, seed int64, n, m int) (*timeseries.DataMatrix, *symex.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const groups = 3
	bases := make([][]float64, groups)
	for g := range bases {
		b := make([]float64, m)
		for i := range b {
			b[i] = math.Sin(float64(i)*0.03*float64(g+1)) + 0.4*math.Cos(float64(i)*0.011*float64(g+2))
		}
		bases[g] = b
	}
	series := make([][]float64, n)
	for s := range series {
		g := s % groups
		scale := 0.5 + rng.Float64()*2
		offset := rng.NormFloat64() * 0.5
		col := make([]float64, m)
		for i := range col {
			col[i] = scale*bases[g][i] + offset + rng.NormFloat64()*0.02
		}
		series[s] = col
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := symex.Compute(d, symex.Options{
		Cluster:            cluster.Config{K: groups, MaxIterations: 10, MinChanges: 0, Seed: 1},
		CachePseudoInverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, rel
}

// affineEstimates computes, for every pair, the measure value as represented
// by the affine relationships (the W_A estimate), which is what the SCAPE
// index stores.  Pairs with an undefined derived value are omitted.
func affineEstimates(t testing.TB, d *timeseries.DataMatrix, rel *symex.Result, m measure.Measure) map[timeseries.Pair]float64 {
	t.Helper()
	out := make(map[timeseries.Pair]float64, rel.Len())
	for r := range rel.All() {
		e := r.Pair
		op, err := rel.PivotMatrix(d, r.Pivot)
		if err != nil {
			t.Fatal(err)
		}
		baseSpec := measure.Lookup(m.Base())
		terms, err := baseSpec.EvalTerms(op.Col(0), op.Col(1))
		if err != nil {
			t.Fatal(err)
		}
		base := r.Transform.PropagateMoment(baseSpec.Moment(terms))
		sp := measure.Lookup(m)
		if sp.Derived() {
			su, _ := d.Series(e.U)
			sv, _ := d.Series(e.V)
			au, _ := measure.NaiveSeriesStat(sp.ParamStats, su)
			av, _ := measure.NaiveSeriesStat(sp.ParamStats, sv)
			u := sp.Param(au, av)
			v, err := sp.Value(base, u, d.NumSamples())
			if err != nil {
				continue // undefined for this pair (zero normalizer)
			}
			base = v
		}
		out[e] = base
	}
	return out
}

func pairSet(pairs []timeseries.Pair) map[timeseries.Pair]bool {
	out := make(map[timeseries.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

func TestBuildBasics(t *testing.T) {
	d, rel := testDataset(t, 1, 15, 80)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st := idx.Stats()
	if st.Pivots != rel.Stats.NumPivots {
		t.Fatalf("pivots = %d, want %d", st.Pivots, rel.Stats.NumPivots)
	}
	if st.SequenceNodes != rel.Len() {
		t.Fatalf("sequence nodes = %d, want %d", st.SequenceNodes, rel.Len())
	}
	if idx.NumPivots() != st.Pivots {
		t.Fatal("NumPivots mismatch")
	}
	if st.IndexedLMeasures != 3 || st.IndexedTMeasures != 2 ||
		st.IndexedDMeasures != len(SeparableDerivedMeasures()) {
		t.Fatalf("measure counts L=%d T=%d D=%d", st.IndexedLMeasures, st.IndexedTMeasures, st.IndexedDMeasures)
	}
}

func TestBuildValidation(t *testing.T) {
	d, rel := testDataset(t, 2, 8, 40)
	if _, err := Build(d, nil, Options{}); err == nil {
		t.Fatal("nil relationships should error")
	}
	if _, err := Build(d, &symex.Result{}, Options{}); err == nil {
		t.Fatal("empty relationships should error")
	}
	if _, err := Build(d, rel, Options{PairMeasures: []measure.Measure{measure.Mean}}); err == nil {
		t.Fatal("L-measure as pair measure should error")
	}
	if _, err := Build(d, rel, Options{DerivedMeasures: []measure.Measure{measure.Covariance}}); err == nil {
		t.Fatal("T-measure as derived measure should error")
	}
	if _, err := Build(d, rel, Options{DerivedMeasures: []measure.Measure{measure.Jaccard}}); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("non-separable D-measure err = %v", err)
	}
	if _, err := Build(d, rel, Options{LocationMeasures: []measure.Measure{measure.Covariance}}); err == nil {
		t.Fatal("T-measure as location measure should error")
	}
	empty := &timeseries.DataMatrix{}
	if _, err := Build(empty, rel, Options{}); err == nil {
		t.Fatal("empty data matrix should error")
	}
}

func TestPairThresholdMatchesAffineEstimates(t *testing.T) {
	d, rel := testDataset(t, 3, 16, 90)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range []measure.Measure{
		measure.Covariance, measure.DotProduct, measure.Correlation, measure.Cosine,
		measure.EuclideanDistance, measure.MeanSquaredDifference, measure.AngularDistance,
	} {
		estimates := affineEstimates(t, d, rel, m)
		// Pick thresholds spanning the value distribution.
		values := make([]float64, 0, len(estimates))
		for _, v := range estimates {
			values = append(values, v)
		}
		sort.Float64s(values)
		for _, q := range []float64{0.1, 0.5, 0.9} {
			tau := values[int(q*float64(len(values)-1))]

			want := map[timeseries.Pair]bool{}
			for e, v := range estimates {
				if v > tau {
					want[e] = true
				}
			}
			got, err := idx.PairInterval(m, interval.GreaterThan(tau))
			if err != nil {
				t.Fatalf("%v threshold: %v", m, err)
			}
			gotSet := pairSet(got)
			if len(gotSet) != len(got) {
				t.Fatalf("%v: duplicate pairs in result", m)
			}
			if !setsAlmostEqual(gotSet, want, estimates, tau) {
				t.Fatalf("%v Above %v: result mismatch (got %d want %d)", m, tau, len(gotSet), len(want))
			}

			// Below variant.
			wantBelow := map[timeseries.Pair]bool{}
			for e, v := range estimates {
				if v < tau {
					wantBelow[e] = true
				}
			}
			gotBelow, err := idx.PairInterval(m, interval.LessThan(tau))
			if err != nil {
				t.Fatal(err)
			}
			if !setsAlmostEqual(pairSet(gotBelow), wantBelow, estimates, tau) {
				t.Fatalf("%v Below %v: result mismatch", m, tau)
			}
		}
	}
}

// setsAlmostEqual compares two result sets, tolerating disagreement only for
// pairs whose estimate is within floating-point distance of the threshold.
func setsAlmostEqual(got, want map[timeseries.Pair]bool, estimates map[timeseries.Pair]float64, tau float64) bool {
	const tol = 1e-9
	for e := range got {
		if !want[e] && math.Abs(estimates[e]-tau) > tol*(1+math.Abs(tau)) {
			return false
		}
	}
	for e := range want {
		if !got[e] && math.Abs(estimates[e]-tau) > tol*(1+math.Abs(tau)) {
			return false
		}
	}
	return true
}

func TestPairRangeMatchesAffineEstimates(t *testing.T) {
	d, rel := testDataset(t, 4, 14, 70)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []measure.Measure{measure.Covariance, measure.Correlation, measure.EuclideanDistance, measure.AngularDistance} {
		estimates := affineEstimates(t, d, rel, m)
		values := make([]float64, 0, len(estimates))
		for _, v := range estimates {
			values = append(values, v)
		}
		sort.Float64s(values)
		lo := values[len(values)/4]
		hi := values[3*len(values)/4]

		want := map[timeseries.Pair]bool{}
		for e, v := range estimates {
			if v >= lo && v <= hi {
				want[e] = true
			}
		}
		got, err := idx.PairInterval(m, interval.Between(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		gotSet := pairSet(got)
		ok := true
		for e := range gotSet {
			if !want[e] && math.Abs(estimates[e]-lo) > 1e-9 && math.Abs(estimates[e]-hi) > 1e-9 {
				ok = false
			}
		}
		for e := range want {
			if !gotSet[e] && math.Abs(estimates[e]-lo) > 1e-9 && math.Abs(estimates[e]-hi) > 1e-9 {
				ok = false
			}
		}
		if !ok {
			t.Fatalf("%v range [%v, %v] mismatch: got %d want %d", m, lo, hi, len(gotSet), len(want))
		}
	}
}

func TestCorrelationThresholdAgainstGroundTruth(t *testing.T) {
	// On strongly clustered data, pairs within a group have correlation close
	// to 1 and cross-group pairs are clearly lower, so a threshold query at
	// 0.95 must recover (almost exactly) the within-group pairs.
	d, rel := testDataset(t, 6, 18, 150)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.PairInterval(measure.Correlation, interval.GreaterThan(0.95))
	if err != nil {
		t.Fatal(err)
	}
	gotSet := pairSet(got)

	truthCount := 0
	misses := 0
	for _, e := range d.AllPairs() {
		want, err := baseline.NewNaive(d).PairValue(measure.Correlation, e)
		if err != nil {
			continue
		}
		if want > 0.95 {
			truthCount++
			if !gotSet[e] {
				misses++
			}
		}
	}
	if truthCount == 0 {
		t.Fatal("test data should contain highly correlated pairs")
	}
	if float64(misses) > 0.05*float64(truthCount) {
		t.Fatalf("missed %d of %d truly correlated pairs", misses, truthCount)
	}
}

func TestSeriesThresholdAndRange(t *testing.T) {
	d, rel := testDataset(t, 7, 12, 60)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	means, err := baseline.NewNaive(d).Location(measure.Mean, d.IDs())
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), means...)
	sort.Float64s(sorted)
	tau := sorted[len(sorted)/2]

	got, err := idx.SeriesInterval(measure.Mean, interval.GreaterThan(tau))
	if err != nil {
		t.Fatal(err)
	}
	gotSet := map[timeseries.SeriesID]bool{}
	for _, id := range got {
		gotSet[id] = true
	}
	for id, v := range means {
		if v > tau+1e-9 && !gotSet[timeseries.SeriesID(id)] {
			t.Fatalf("series %d with mean %v missing from > %v result", id, v, tau)
		}
		if v < tau-1e-9 && gotSet[timeseries.SeriesID(id)] {
			t.Fatalf("series %d with mean %v wrongly in > %v result", id, v, tau)
		}
	}

	below, err := idx.SeriesInterval(measure.Mean, interval.LessThan(tau))
	if err != nil {
		t.Fatal(err)
	}
	if len(below)+len(got) > d.NumSeries() {
		t.Fatal("above and below results overlap")
	}

	lo, hi := sorted[2], sorted[len(sorted)-3]
	ranged, err := idx.SeriesInterval(measure.Mean, interval.Between(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ranged {
		v := means[id]
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("series %d mean %v outside [%v, %v]", id, v, lo, hi)
		}
	}
}

// TestLocationColumnsFilledOnDemand: no route that builds an index fills a
// location column; each L-measure's column is filled by the first query or
// count that names it, once, and holds what the whole-relationship-set rule
// gives — every series estimated through the relationship with the smallest
// canonical pair among those it is the non-common member of, its own window
// location when there is none — here over a partial layout that keeps a
// fifth of the relationships, so many series fall back to a later pair or to
// their own value.
func TestLocationColumnsFilledOnDemand(t *testing.T) {
	d, full := testDataset(t, 17, 24, 80)
	rng := rand.New(rand.NewSource(5))
	var keep []int32
	for slot := range full.Layout().Assignments() {
		if rng.Float64() >= 0.8 {
			keep = append(keep, int32(slot))
		}
	}
	rel, err := full.Subset(keep)
	if err != nil {
		t.Fatal(err)
	}

	// The oracle: the smallest estimating pair of every series, found by a
	// walk of the whole set.
	chosen := map[timeseries.SeriesID]*symex.Relationship{}
	for r := range rel.All() {
		if cur, ok := chosen[r.Other()]; !ok || timeseries.ComparePairs(r.Pair, cur.Pair) < 0 {
			chosen[r.Other()] = r
		}
	}
	if len(chosen) == 0 || len(chosen) == d.NumSeries() {
		t.Fatalf("%d of %d series estimated: the partial layout left no route uncovered", len(chosen), d.NumSeries())
	}

	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	upd, _, err := idx.Update(d, rel, map[timeseries.Pair]bool{}, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := BuildLocationOnly(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{idx, upd, loc} {
		for s := range ix.location {
			if ix.location[s].keys != nil {
				t.Fatalf("a fresh index holds the %v column", ix.lMeasures[s])
			}
		}
	}
	queries := []func(*Index, measure.Measure) error{
		func(ix *Index, m measure.Measure) error {
			_, err := ix.SeriesInterval(m, interval.AtLeast(0))
			return err
		},
		func(ix *Index, m measure.Measure) error {
			_, _, err := ix.SeriesTopK(m, 3, true)
			return err
		},
		func(ix *Index, m measure.Measure) error {
			_, err := ix.EstimateSelectivity(PairQuery{Measure: m, Interval: interval.AtMost(1)})
			return err
		},
	}
	for i, ix := range []*Index{idx, upd, loc} {
		for s, m := range ix.lMeasures {
			own, err := baseline.NewNaive(d).Location(m, d.IDs())
			if err != nil {
				t.Fatal(err)
			}
			centers, err := rel.Clustering.CenterLocations(m)
			if err != nil {
				t.Fatal(err)
			}
			values := make([]float64, d.NumSeries())
			for id := range values {
				values[id] = own[id]
				if r, ok := chosen[timeseries.SeriesID(id)]; ok {
					values[id] = r.Transform.PropagateLocation([2]float64{own[r.Pivot.Common], centers[r.Pivot.Cluster]})[1]
				}
			}
			if err := queries[(i+s)%len(queries)](ix, m); err != nil {
				t.Fatal(err)
			}
			for r := s + 1; r < len(ix.location); r++ {
				if ix.location[r].keys != nil {
					t.Fatalf("a %v query filled the %v column", m, ix.lMeasures[r])
				}
			}
			if filled, err := ix.FillLocation(m); err != nil || filled {
				t.Fatalf("%v: a second fill reported %v, %v", m, filled, err)
			}
			got, want := &ix.location[s], &columnIndex(values).location[0]
			for j := range want.keys {
				if got.ids[j] != want.ids[j] || math.Float64bits(got.keys[j]) != math.Float64bits(want.keys[j]) {
					t.Fatalf("%v: entry %d is series %d = %v, the oracle's series %d = %v",
						m, j, got.ids[j], got.keys[j], want.ids[j], want.keys[j])
				}
			}
		}
	}
}

func TestPairValue(t *testing.T) {
	d, rel := testDataset(t, 8, 10, 60)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	estimates := affineEstimates(t, d, rel, measure.Covariance)
	for e, want := range estimates {
		got, err := idx.PairValue(measure.Covariance, e)
		if err != nil {
			t.Fatalf("PairValue(%v): %v", e, err)
		}
		if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("PairValue(%v) = %v, want %v", e, got, want)
		}
	}
	// Correlation values must be within [-1, 1].
	for e := range estimates {
		v, err := idx.PairValue(measure.Correlation, e)
		if err != nil {
			t.Fatal(err)
		}
		if v < -1 || v > 1 {
			t.Fatalf("correlation estimate %v out of range", v)
		}
	}
	if _, err := idx.PairValue(measure.Covariance, timeseries.Pair{U: 0, V: 99}); err == nil {
		t.Fatal("unknown pair should error")
	}
}

func TestQueryErrors(t *testing.T) {
	d, rel := testDataset(t, 9, 8, 40)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.PairInterval(measure.Mean, interval.GreaterThan(0)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("L-measure pair threshold err = %v", err)
	}
	if _, err := idx.PairInterval(measure.Jaccard, interval.GreaterThan(0)); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("Jaccard threshold err = %v", err)
	}
	if _, err := idx.PairInterval(measure.Covariance, interval.Between(2, 1)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("inverted range err = %v", err)
	}
	if _, err := idx.PairInterval(measure.Mean, interval.Between(0, 1)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("L-measure range err = %v", err)
	}
	if _, err := idx.PairInterval(measure.Jaccard, interval.Between(0, 1)); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("Jaccard range err = %v", err)
	}
	if _, err := idx.SeriesInterval(measure.Covariance, interval.GreaterThan(0)); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("series threshold on T-measure err = %v", err)
	}
	if _, err := idx.SeriesInterval(measure.Covariance, interval.Between(0, 1)); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("series range on T-measure err = %v", err)
	}
	if _, err := idx.SeriesInterval(measure.Mean, interval.Between(1, 0)); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("series inverted range err = %v", err)
	}
	if _, err := idx.SeriesInterval(measure.Mean, interval.New(interval.Open(1), interval.Closed(1))); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty point interval err = %v", err)
	}
}

func TestConstantSeriesDoesNotBreakIndex(t *testing.T) {
	series := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{2, 4, 6, 8, 10, 12, 14, 16},
		{5, 5, 5, 5, 5, 5, 5, 5}, // constant: zero variance
		{8, 6, 4, 2, 0, -2, -4, -6},
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := symex.Compute(d, symex.Options{
		Cluster:            cluster.Config{K: 2, MaxIterations: 10, Seed: 1, MinChanges: 0},
		CachePseudoInverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatalf("Build with constant series: %v", err)
	}
	// Queries must not blow up; pairs involving the constant series are
	// simply absent from correlation results.
	res, err := idx.PairInterval(measure.Correlation, interval.GreaterThan(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res {
		if e.Contains(2) {
			t.Fatalf("pair %v with a constant series should not appear in correlation results", e)
		}
	}
	if _, err := idx.PairInterval(measure.Covariance, interval.GreaterThan(0)); err != nil {
		t.Fatal(err)
	}
}
