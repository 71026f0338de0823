package scape

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// topKOracle sorts the index's own value representation of every pair under
// the shared total order and returns the best k — the reference PairTopK must
// reproduce exactly, including tie-breaks.
func topKOracle(estimates map[timeseries.Pair]float64, k int, largest bool) ([]timeseries.Pair, []float64) {
	type entry struct {
		pair  timeseries.Pair
		value float64
	}
	entries := make([]entry, 0, len(estimates))
	for p, v := range estimates {
		entries = append(entries, entry{pair: p, value: v})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].value != entries[j].value {
			if largest {
				return entries[i].value > entries[j].value
			}
			return entries[i].value < entries[j].value
		}
		return timeseries.ComparePairs(entries[i].pair, entries[j].pair) < 0
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	pairs := make([]timeseries.Pair, len(entries))
	values := make([]float64, len(entries))
	for i, e := range entries {
		pairs[i] = e.pair
		values[i] = e.value
	}
	return pairs, values
}

// requireNoNaNBound pins what makes the cursor's candidate order a strict
// total order (bound, then node position): no node's optimistic bound is NaN.
func requireNoNaNBound(t *testing.T, idx *Index, m measure.Measure, largest bool) {
	t.Helper()
	cur, err := idx.NewTopKCursor(m, largest)
	if err != nil {
		t.Fatal(err)
	}
	if i := slices.IndexFunc(cur.cands, func(c nodeCand) bool { return math.IsNaN(c.bound) }); i >= 0 {
		t.Fatalf("%v largest=%v: node %d has a NaN bound", m, largest, cur.cands[i].order)
	}
}

// TestPairTopKMatchesIndexValues pins the best-first traversal against a
// sort of the index's own per-pair values, for T- and D-measures (increasing
// and decreasing transforms), both directions and several k.  Values must
// match exactly; pairs may differ only where values tie within rounding of
// each other at the k boundary.
func TestPairTopKMatchesIndexValues(t *testing.T) {
	d, rel := testDataset(t, 21, 16, 90)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := idx.Stats().SequenceNodes
	for _, m := range []measure.Measure{
		measure.Covariance, measure.DotProduct, measure.Correlation,
		measure.Cosine, measure.EuclideanDistance, measure.AngularDistance,
	} {
		// The index's own representation of every pair, via the same
		// evaluator the scans use.
		estimates := make(map[timeseries.Pair]float64, entries)
		for r := range rel.All() {
			e := r.Pair
			v, err := idx.PairValue(m, e)
			if err != nil {
				continue
			}
			estimates[e] = v
		}
		for _, largest := range []bool{true, false} {
			requireNoNaNBound(t, idx, m, largest)
			for _, k := range []int{1, 5, entries + 3} {
				pairs, values, examined, err := idx.PairTopK(m, k, largest)
				if err != nil {
					t.Fatalf("%v k=%d largest=%v: %v", m, k, largest, err)
				}
				wantPairs, wantValues := topKOracle(estimates, k, largest)
				if len(pairs) != len(wantPairs) || len(values) != len(pairs) {
					t.Fatalf("%v k=%d largest=%v: got %d results, want %d",
						m, k, largest, len(pairs), len(wantPairs))
				}
				for i := range pairs {
					if pairs[i] != wantPairs[i] || values[i] != wantValues[i] {
						t.Fatalf("%v k=%d largest=%v entry %d: got (%v, %v), want (%v, %v)",
							m, k, largest, i, pairs[i], values[i], wantPairs[i], wantValues[i])
					}
				}
				if examined <= 0 || examined > entries {
					t.Fatalf("%v: examined %d of %d entries", m, examined, entries)
				}
			}
		}
	}
}

// TestPairTopKPrunes pins that small-k traversals stop before examining
// every entry, on a T-measure and on D-measures, and still return the
// per-entry oracle's ranking.
func TestPairTopKPrunes(t *testing.T) {
	d, rel := testDataset(t, 22, 18, 90)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := idx.Stats().SequenceNodes
	for _, m := range []measure.Measure{measure.Covariance, measure.Correlation, measure.EuclideanDistance} {
		largest := m != measure.EuclideanDistance
		pairs, values, examined, err := idx.PairTopK(m, 5, largest)
		if err != nil {
			t.Fatal(err)
		}
		if examined >= entries {
			t.Fatalf("%v top-5 examined %d of %d entries — no pruning", m, examined, entries)
		}
		if m == measure.Covariance {
			continue
		}
		wantPairs, wantValues := topKOracle(oracleValues(perEntryOracle(idx, measure.Lookup(m))), 5, largest)
		if !slices.Equal(pairs, wantPairs) || !slices.Equal(values, wantValues) {
			t.Fatalf("%v top-5: (%v, %v), the oracle (%v, %v)", m, pairs, values, wantPairs, wantValues)
		}
	}
}

// TestSeriesTopK pins L-measure top-k against the location column's own
// contents: a full-k query returns every series in value order with id
// tie-breaks, and smaller k are prefixes.
func TestSeriesTopK(t *testing.T) {
	d, rel := testDataset(t, 23, 14, 70)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumSeries()
	for _, m := range measure.ByClass(measure.LocationClass) {
		for _, largest := range []bool{true, false} {
			ids, values, err := idx.SeriesTopK(m, n, largest)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != n || len(values) != n {
				t.Fatalf("%v: full ranking %d/%d of %d", m, len(ids), len(values), n)
			}
			for i := 1; i < n; i++ {
				if (largest && values[i] > values[i-1]) || (!largest && values[i] < values[i-1]) {
					t.Fatalf("%v largest=%v: values out of order at %d", m, largest, i)
				}
				if values[i] == values[i-1] && ids[i] < ids[i-1] {
					t.Fatalf("%v: id tie-break violated at %d", m, i)
				}
			}
			top, topVals, err := idx.SeriesTopK(m, 4, largest)
			if err != nil {
				t.Fatal(err)
			}
			for i := range top {
				if top[i] != ids[i] || topVals[i] != values[i] {
					t.Fatalf("%v: top-4 not a prefix of the full ranking", m)
				}
			}
		}
	}
	if _, _, err := idx.SeriesTopK(measure.Mean, 0, true); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("k=0 err = %v, want ErrBadQuery", err)
	}
	if _, _, err := idx.SeriesTopK(measure.Covariance, 3, true); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("T-measure series top-k err = %v, want ErrMeasureNotIndexed", err)
	}
}

// TestPairTopKErrors pins the traversal's typed errors.
func TestPairTopKErrors(t *testing.T) {
	d, rel := testDataset(t, 24, 8, 40)
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := idx.PairTopK(measure.Correlation, 0, true); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("k=0 err = %v, want ErrBadQuery", err)
	}
	if _, _, _, err := idx.PairTopK(measure.Mean, 3, true); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("L-measure pair top-k err = %v, want ErrBadQuery", err)
	}
	if _, _, _, err := idx.PairTopK(measure.Jaccard, 3, true); !errors.Is(err, ErrMeasureNotIndexed) {
		t.Fatalf("jaccard top-k err = %v, want ErrMeasureNotIndexed", err)
	}
}

// TestPairBatchMatchesSingleIntervals pins the shared-traversal batch path
// against single interval scans, element for element, mixing measure classes
// and interval shapes.
func TestPairBatchMatchesSingleIntervals(t *testing.T) {
	d, rel := testDataset(t, 25, 15, 80)
	idx, err := Build(d, rel, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs := []PairQuery{
		{Measure: measure.Covariance, Interval: interval.GreaterThan(0)},
		{Measure: measure.Correlation, Interval: interval.Between(0.5, 1)},
		{Measure: measure.EuclideanDistance, Interval: interval.LessThan(2)},
		{Measure: measure.Cosine, Interval: interval.AtLeast(0.7)},
		{Measure: measure.DotProduct, Interval: interval.AtMost(10)},
	}
	batch, err := idx.PairBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, err := idx.PairInterval(q.Measure, q.Interval)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(single) {
			t.Fatalf("query %d: batch %d vs single %d results", i, len(batch[i]), len(single))
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("query %d entry %d: batch %v != single %v", i, j, batch[i][j], single[j])
			}
		}
	}
	// The node offsets cut every query's flat result into the blocks a scan of
	// each node on its own produces, at any worker count.
	for _, p := range []int{1, 2, 8} {
		pidx, err := Build(d, rel, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		flat, ends, err := pidx.PairBatchNodes(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if !slices.Equal(flat[i], batch[i]) || len(ends[i]) != pidx.NumPivots() {
				t.Fatalf("P=%d query %d: %d pairs and %d offsets, want the batch's %d pairs and %d offsets",
					p, i, len(flat[i]), len(ends[i]), len(batch[i]), pidx.NumPivots())
			}
			ps, err := pidx.compilePair(q)
			if err != nil {
				t.Fatal(err)
			}
			lo := int32(0)
			for n, hi := range ends[i] {
				if want := pidx.scanNode(n, ps, nil); hi < lo || !slices.Equal(flat[i][lo:hi], want) {
					t.Fatalf("P=%d query %d node %d (%v): block [%d, %d) is not the node's scan %v", p, i, n, pidx.NodePivot(n), lo, hi, want)
				}
				lo = hi
			}
			if int(lo) != len(flat[i]) {
				t.Fatalf("P=%d query %d: offsets end at %d of %d pairs", p, i, lo, len(flat[i]))
			}
		}
	}
	if _, err := idx.PairBatch([]PairQuery{{Measure: measure.Correlation, Interval: interval.Between(1, 0)}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty-interval batch err = %v, want ErrBadQuery", err)
	}
}

// TestTopHeapProperties fuzz-checks the bounded heap against a plain
// sort-and-truncate reference over random offer sequences.
func TestTopHeapProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(8)
		largest := rng.Intn(2) == 0
		h := NewTopHeap(k, largest)
		estimates := make(map[timeseries.Pair]float64)
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			u := timeseries.SeriesID(rng.Intn(12))
			v := timeseries.SeriesID(rng.Intn(12))
			if u == v {
				continue
			}
			p, err := timeseries.NewPair(u, v)
			if err != nil {
				t.Fatal(err)
			}
			value := float64(rng.Intn(6)) // few distinct values: dense ties
			if _, seen := estimates[p]; seen {
				continue // keep the reference a function pair -> value
			}
			estimates[p] = value
			h.Offer(p, value)
		}
		if want := minInt(k, len(estimates)); h.Len() != want {
			t.Fatalf("trial %d: heap kept %d, want %d", trial, h.Len(), want)
		}
		if full := h.Full(); full != (len(estimates) >= k) {
			t.Fatalf("trial %d: Full() = %v with %d offers", trial, full, len(estimates))
		}
		pairs, values := h.Sorted()
		wantPairs, wantValues := topKOracle(estimates, k, largest)
		for i := range wantPairs {
			if pairs[i] != wantPairs[i] || values[i] != wantValues[i] {
				t.Fatalf("trial %d entry %d: got (%v, %v), want (%v, %v)",
					trial, i, pairs[i], values[i], wantPairs[i], wantValues[i])
			}
		}
		if vk, ok := h.Threshold(); ok && vk != values[len(values)-1] {
			t.Fatalf("trial %d: Threshold() = %v, want worst retained %v", trial, vk, values[len(values)-1])
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FuzzTopKPaddedWindow pins padBound, the no-false-dismissal pad of a
// T-measure top-k scan: whenever an entry's value ‖α‖·ξ would enter a full
// heap at threshold v_k (it ties or beats v_k), its ξ lies inside the window
// the scan ascends, scaleInterval(runningInterval(...), ‖α‖), although the
// division that window takes rounds differently from the product.
func FuzzTopKPaddedWindow(f *testing.F) {
	f.Add(1.0, 0.5, 0.5, true)
	f.Add(3.0, 1.0/3, 1.0, false)
	f.Add(1e-300, 1e300, 1.0, true)
	f.Add(0.1, -7.0, -0.7, false)
	f.Fuzz(func(t *testing.T, alphaNorm, xi, vk float64, largest bool) {
		value := alphaNorm * xi
		if !(alphaNorm > 0) || math.IsInf(alphaNorm, 0) || math.IsInf(xi, 0) || math.IsNaN(xi) ||
			math.IsInf(vk, 0) || math.IsNaN(vk) || math.IsInf(value, 0) {
			return // the index scales finite ξ by a finite positive norm
		}
		if !BoundBeats(value, vk, largest) {
			return
		}
		heap := NewTopHeap(1, largest)
		heap.Offer(timeseries.Pair{U: 0, V: 1}, vk)
		if window := scaleInterval(runningInterval(heap, largest), alphaNorm); !window.Contains(xi) {
			t.Fatalf("‖α‖ %v · ξ %v = %v beats v_k %v (largest %v) but ξ is outside %v", alphaNorm, xi, value, vk, largest, window)
		}
	})
}
