package scape

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// A D-measure query reads the index's per-epoch value column.  The oracle
// here is the definition the column stands for: per node, in the order of the
// node's base ξ-container, the spec's Param over the window moments of the
// pair's two series and the spec's Value of ‖α‖·ξ — an entry whose value is
// undefined matches no interval and ranks nowhere.

// oracleEntry is one entry of a node under a D-measure.
type oracleEntry struct {
	pair    timeseries.Pair
	value   float64
	defined bool
}

// perEntryOracle evaluates sp for every entry of idx, node by node, each
// node's entries in its base container's order.
func perEntryOracle(idx *Index, sp *measure.Spec) [][]oracleEntry {
	slot := slices.Index(idx.tMeasures, sp.Base)
	out := make([][]oracleEntry, len(idx.pivots))
	for i := range idx.pivots {
		pm := &idx.pivots[i].measures[slot]
		for j, xi := range pm.xi.keys {
			pair := pm.xi.canon[pm.xi.ranks[j]].pair
			u := sp.Param(idx.moments.Stat(pair.U), idx.moments.Stat(pair.V))
			v, err := sp.Eval(pm.alphaNorm*xi, u, idx.numSamples)
			out[i] = append(out[i], oracleEntry{pair: pair, value: v, defined: err == nil && !math.IsNaN(v)})
		}
	}
	return out
}

// oracleInterval is the interval answer of the oracle: every defined entry the
// interval contains, node by node in container order.
func oracleInterval(entries [][]oracleEntry, iv interval.Interval) []timeseries.Pair {
	var out []timeseries.Pair
	for _, node := range entries {
		for _, e := range node {
			if e.defined && iv.Contains(e.value) {
				out = append(out, e.pair)
			}
		}
	}
	return out
}

// oracleValues returns the defined (pair, value) entries as a map, the input
// topKOracle ranks.
func oracleValues(entries [][]oracleEntry) map[timeseries.Pair]float64 {
	out := map[timeseries.Pair]float64{}
	for _, node := range entries {
		for _, e := range node {
			if e.defined {
				out[e.pair] = e.value
			}
		}
	}
	return out
}

// tiedDataset is testDataset with a few series replaced by exact affine copies
// of others, so correlations clamp to ±1 and top-k lists tie at v_k.
func tiedDataset(t testing.TB, seed int64, n, m int) (*timeseries.DataMatrix, *symex.Result) {
	t.Helper()
	base, _ := testDataset(t, seed, n, m)
	series := make([][]float64, n)
	for v := range series {
		s, err := base.Series(timeseries.SeriesID(v))
		if err != nil {
			t.Fatal(err)
		}
		series[v] = slices.Clone(s)
	}
	for v := n - 4; v < n; v++ {
		for i, x := range series[v-n+4] {
			series[v][i] = float64(v)*x + 1
		}
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := symex.Compute(d, symex.Options{
		Cluster:            cluster.Config{K: 3, MaxIterations: 10, MinChanges: 0, Seed: 1},
		CachePseudoInverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, rel
}

// oracleIntervals returns the probes for one measure: thresholds and ranges
// across its value distribution, open and closed endpoints beyond its clamp
// range and the whole line.
func oracleIntervals(sp *measure.Spec, values map[timeseries.Pair]float64) []interval.Interval {
	sorted := make([]float64, 0, len(values))
	for _, v := range values {
		sorted = append(sorted, v)
	}
	sort.Float64s(sorted)
	pick := func(q float64) float64 {
		if len(sorted) == 0 {
			return q
		}
		return sorted[int(q*float64(len(sorted)-1))]
	}
	lo, hi := pick(0)-1, pick(1)+1
	if sp.Bounded {
		lo, hi = sp.RangeMin-1, sp.RangeMax+1
	}
	ivs := []interval.Interval{
		interval.All(),
		interval.GreaterThan(lo), interval.LessThan(hi), interval.AtLeast(lo), interval.AtMost(hi),
		interval.New(interval.Open(lo), interval.Closed(pick(0.5))),
		interval.New(interval.Closed(pick(0.5)), interval.Open(hi)),
		interval.New(interval.Open(lo), interval.Open(hi)),
		interval.Between(lo, hi),
		interval.GreaterThan(pick(1)), interval.AtLeast(pick(1)), interval.LessThan(pick(0)), interval.AtMost(pick(0)),
	}
	for _, q := range []float64{0.05, 0.3, 0.6, 0.95} {
		ivs = append(ivs, interval.GreaterThan(pick(q)), interval.LessThan(pick(q)), interval.AtLeast(pick(q)))
	}
	for _, r := range [][2]float64{{0.1, 0.5}, {0.4, 0.9}, {0, 1}} {
		ivs = append(ivs, interval.Between(pick(r[0]), pick(r[1])),
			interval.New(interval.Open(pick(r[0])), interval.Open(pick(r[1]))))
	}
	if sp.Bounded {
		ivs = append(ivs, interval.Between(sp.RangeMin, sp.RangeMax), interval.AtLeast(sp.RangeMax), interval.AtMost(sp.RangeMin),
			interval.GreaterThan(sp.RangeMax+1), interval.LessThan(sp.RangeMin-1))
	}
	// Few distinct values can make an open range empty, which is a bad query.
	return slices.DeleteFunc(ivs, interval.Interval.Empty)
}

// nodeProbes returns intervals anchored at the extremes of every node with a
// defined value: closed at both (the node lies inside, each extreme exactly on
// a closed endpoint), closed at one (the node touches the interval at one
// entry), open at one (the node misses it, just).
func nodeProbes(entries [][]oracleEntry) []interval.Interval {
	var ivs []interval.Interval
	for _, node := range entries {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range node {
			if e.defined {
				lo, hi = min(lo, e.value), max(hi, e.value)
			}
		}
		if lo <= hi {
			ivs = append(ivs, interval.Between(lo, hi), interval.AtLeast(hi), interval.AtMost(lo),
				interval.GreaterThan(hi), interval.LessThan(lo))
		}
	}
	return slices.DeleteFunc(ivs, interval.Interval.Empty)
}

// requireNodeEnds holds one D-measure's batch against the oracle on probes
// anchored at the nodes' extremes: PairBatchNodes returns the oracle's pairs
// with node ends at the oracle's running counts, and the selectivity count is
// the oracle's.
func requireNodeEnds(t *testing.T, idx *Index, sp *measure.Spec, entries [][]oracleEntry) {
	t.Helper()
	ivs := nodeProbes(entries)
	qs := make([]PairQuery, len(ivs))
	for q, iv := range ivs {
		qs[q] = PairQuery{Measure: sp.ID, Interval: iv}
	}
	out, ends, err := idx.PairBatchNodes(qs)
	if err != nil {
		t.Fatal(err)
	}
	for q, iv := range ivs {
		var want []timeseries.Pair
		for i, node := range entries {
			for _, e := range node {
				if e.defined && iv.Contains(e.value) {
					want = append(want, e.pair)
				}
			}
			if int(ends[q][i]) != len(want) {
				t.Fatalf("%v %v: node %d ends at %d, the oracle at %d", sp.ID, iv, i, ends[q][i], len(want))
			}
		}
		if !slices.Equal(out[q], want) {
			t.Fatalf("%v %v: scan %d pairs, the oracle %d", sp.ID, iv, len(out[q]), len(want))
		}
		if sel, err := idx.EstimateSelectivity(qs[q]); err != nil || sel.Rows != len(want) {
			t.Fatalf("%v %v: counted %d rows (%v), the oracle %d", sp.ID, iv, sel.Rows, err, len(want))
		}
	}
}

// TestDerivedScansMatchPerEntryOracle holds every indexable D-measure's
// interval scans, batches, counts and top-k against the per-entry oracle: the
// same pairs in the same order, the same value bits.  The inputs cover series
// of zero variance, a pivot with ‖α‖ = 0 and NaN ξ (the hostile index), exact
// ties at v_k (the tied dataset) and a plain one, at P ∈ {1, 2, 8}.  Probes
// anchored at node extremes put closed and open endpoints exactly on stored
// values and check the batch's node ends.
func TestDerivedScansMatchPerEntryOracle(t *testing.T) {
	hostile, _, hostileRel := hostileIndexInputs(t, true)
	plain, plainRel := testDataset(t, 5, 15, 80)
	tied, tiedRel := tiedDataset(t, 6, 16, 90)
	inputs := []struct {
		name string
		d    *timeseries.DataMatrix
		rel  *symex.Result
	}{{"hostile", hostile, hostileRel}, {"plain", plain, plainRel}, {"tied", tied, tiedRel}}
	tiesAtVk := 0
	for _, in := range inputs {
		for _, p := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", in.name, p), func(t *testing.T) {
				idx, err := Build(in.d, in.rel, Options{Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range SeparableDerivedMeasures() {
					sp := measure.Lookup(m)
					entries := perEntryOracle(idx, sp)
					values := oracleValues(entries)
					ivs := oracleIntervals(sp, values)
					qs := make([]PairQuery, len(ivs))
					for q, iv := range ivs {
						qs[q] = PairQuery{Measure: m, Interval: iv}
					}
					batch, err := idx.PairBatch(qs)
					if err != nil {
						t.Fatal(err)
					}
					for q, iv := range ivs {
						want := oracleInterval(entries, iv)
						got, err := idx.PairInterval(m, iv)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) || !slices.Equal(batch[q], want) {
							t.Fatalf("%v %v: scan %d pairs, batch %d, the oracle %d", m, iv, len(got), len(batch[q]), len(want))
						}
					}
					requireNodeEnds(t, idx, sp, entries)

					for _, largest := range []bool{true, false} {
						ranked, _ := topKOracle(values, len(values), largest)
						ks := []int{1, 5, len(values) + 3}
						for i := 1; i < len(ranked); i++ {
							if values[ranked[i-1]] == values[ranked[i]] {
								ks = append(ks, i) // v_k ties with the first pair left out
								tiesAtVk++
								break
							}
						}
						for _, k := range ks {
							pairs, got, _, err := idx.PairTopK(m, k, largest)
							if err != nil {
								t.Fatal(err)
							}
							wantPairs, want := topKOracle(values, k, largest)
							if !slices.Equal(pairs, wantPairs) || len(got) != len(want) {
								t.Fatalf("%v k=%d largest=%v: pairs %v, the oracle %v", m, k, largest, pairs, wantPairs)
							}
							for i := range want {
								if !sameBits(got[i], want[i]) {
									t.Fatalf("%v k=%d largest=%v entry %d: %v, the oracle %v", m, k, largest, i, got[i], want[i])
								}
							}
						}
					}
				}
			})
		}
	}
	if tiesAtVk == 0 {
		t.Fatal("no top-k list tied at v_k: the inputs do not exercise the tie-break")
	}
}

// filledColumns lists the D-measures whose value column an index has filled.
func filledColumns(idx *Index) []measure.Measure {
	var out []measure.Measure
	for s, m := range idx.dMeasures {
		if idx.columns[s].values != nil {
			out = append(out, m)
		}
	}
	return out
}

// requireColumn checks an index's filled column of sp against the oracle:
// every value's bits (NaN where undefined) and every node's extremes.
func requireColumn(t *testing.T, label string, idx *Index, sp *measure.Spec) {
	t.Helper()
	col := &idx.columns[slices.Index(idx.dMeasures, sp.ID)]
	for i, node := range perEntryOracle(idx, sp) {
		lo, hi := math.Inf(1), math.Inf(-1)
		values := idx.nodeValues(col, i)
		for j, e := range node {
			want := math.NaN()
			if e.defined {
				want = e.value
				lo, hi = min(lo, e.value), max(hi, e.value)
			}
			if got := values[j]; !sameBits(got, want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s %v node %d entry %d: column %v, the oracle %v", label, sp.ID, i, j, got, want)
			}
		}
		if col.extremes[i] != [2]float64{lo, hi} {
			t.Fatalf("%s %v node %d: extremes %v, the oracle %v", label, sp.ID, i, col.extremes[i], [2]float64{lo, hi})
		}
	}
}

// TestDerivedColumnsFilledOnDemand: Build and Update fill no column; the
// first scan, batch, top-k or selectivity count of an epoch that names a
// D-measure fills that measure's column — and only it — once, also when
// several goroutines ask at once; an index without D-measures has no columns.
func TestDerivedColumnsFilledOnDemand(t *testing.T) {
	d1, d2, rel1 := slidingDataset(t, 11, 36, 240, 24)
	idx, err := Build(d1, rel1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(label string, idx *Index, want ...measure.Measure) {
		t.Helper()
		if got := filledColumns(idx); !slices.Equal(got, want) {
			t.Fatalf("%s: columns filled for %v, want %v", label, got, want)
		}
	}
	expect("fresh index", idx)

	// Queries and counts that name no D-measure or whose predicate misses
	// the measure's range, and single-pair lookups, fill none.
	for _, q := range []PairQuery{
		{Measure: measure.Covariance, Interval: interval.AtLeast(0.1)},
		{Measure: measure.DotProduct, Interval: interval.Between(-1, 1)},
		{Measure: measure.Correlation, Interval: interval.GreaterThan(2)},
		{Measure: measure.EuclideanDistance, Interval: interval.LessThan(-1)},
	} {
		if _, err := idx.EstimateSelectivity(q); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.PairInterval(q.Measure, q.Interval); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := idx.PairTopK(measure.Covariance, 5, true); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.PairValue(measure.Correlation, idx.pivots[0].canon[0].pair); err != nil {
		t.Fatal(err)
	}
	expect("after queries that evaluate no D-measure", idx)

	// Each door fills its own measure's column, once.
	if _, err := idx.PairInterval(measure.Correlation, interval.AtLeast(0.5)); err != nil {
		t.Fatal(err)
	}
	expect("after a correlation scan", idx, measure.Correlation)
	corr := measure.Lookup(measure.Correlation)
	first := &idx.columns[slices.Index(idx.dMeasures, measure.Correlation)].values[0]
	if _, err := idx.PairBatch([]PairQuery{{Measure: measure.Correlation, Interval: interval.AtMost(0)}}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := idx.PairTopK(measure.Correlation, 3, false); err != nil {
		t.Fatal(err)
	}
	if again := &idx.columnOf(corr).values[0]; again != first {
		t.Fatal("the correlation column was filled twice at one epoch")
	}
	if _, err := idx.PairBatch([]PairQuery{{Measure: measure.Covariance, Interval: interval.All()}, {Measure: measure.Dice, Interval: interval.All()}}); err != nil {
		t.Fatal(err)
	}
	expect("after a Dice batch", idx, measure.Correlation, measure.Dice)
	if _, err := idx.EstimateSelectivity(PairQuery{Measure: measure.Cosine, Interval: interval.AtLeast(0.5)}); err != nil {
		t.Fatal(err)
	}
	expect("after a cosine count", idx, measure.Correlation, measure.Cosine, measure.Dice)
	cosine := &idx.columnOf(measure.Lookup(measure.Cosine)).values[0]
	if _, _, _, err := idx.PairTopK(measure.Cosine, 5, true); err != nil {
		t.Fatal(err)
	}
	if &idx.columnOf(measure.Lookup(measure.Cosine)).values[0] != cosine {
		t.Fatal("the cosine column was filled twice at one epoch")
	}
	requireColumn(t, "first epoch", idx, corr)

	// The next epoch starts without columns and fills its own; the pinned
	// previous index keeps reading the one of its window.
	stale := staleSubset(rel1, 0.1, 5)
	rel2, _, err := symex.Refit(d2, rel1, symex.RefitOptions{Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	upd, _, err := idx.Update(d2, rel2, stale, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expect("updated index", upd)
	rebuilt, _, err := idx.Update(d2, rel2, nil, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expect("index rebuilt by Update", rebuilt)
	if _, err := upd.PairInterval(measure.Correlation, interval.AtLeast(0.5)); err != nil {
		t.Fatal(err)
	}
	expect("updated index after a correlation scan", upd, measure.Correlation)
	expect("previous index", idx, measure.Correlation, measure.Cosine, measure.Dice)
	if &idx.columnOf(corr).values[0] != first {
		t.Fatal("the previous index lost its correlation column")
	}
	requireColumn(t, "previous epoch", idx, corr)
	requireColumn(t, "next epoch", upd, corr)
	if slices.Equal(idx.columnOf(corr).values, upd.columnOf(corr).values) {
		t.Fatal("the slid window left every correlation value where it was: the test cannot tell the epochs apart")
	}

	// Eight first queries at once, through every door: one fill per measure,
	// every answer the oracle's.  Run with -race.
	for _, p := range []int{1, 8} {
		fresh, err := Build(d2, rel2, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		ms := []measure.Measure{measure.Correlation, measure.EuclideanDistance}
		got := make([][]timeseries.Pair, 8)
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := ms[r%2]
				switch r / 2 % 3 {
				case 0:
					got[r], _ = fresh.PairInterval(m, interval.AtLeast(0.5))
				case 1:
					out, _ := fresh.PairBatch([]PairQuery{{Measure: m, Interval: interval.AtLeast(0.5)}})
					got[r] = out[0]
				default:
					got[r], _, _, _ = fresh.PairTopK(m, 7, m == measure.Correlation)
				}
			}()
		}
		wg.Wait()
		expect(fmt.Sprintf("P=%d after eight concurrent first queries", p), fresh, measure.Correlation, measure.EuclideanDistance)
		for r := range got {
			m := ms[r%2]
			sp := measure.Lookup(m)
			entries := perEntryOracle(fresh, sp)
			want := oracleInterval(entries, interval.AtLeast(0.5))
			if r/2%3 == 2 {
				want, _ = topKOracle(oracleValues(entries), 7, m == measure.Correlation)
			}
			if !slices.Equal(got[r], want) {
				t.Fatalf("P=%d reader %d (%v): %d pairs, the oracle %d", p, r, m, len(got[r]), len(want))
			}
		}
		for _, m := range ms {
			requireColumn(t, fmt.Sprintf("P=%d concurrent fill", p), fresh, measure.Lookup(m))
		}
	}

	plain, err := Build(d1, rel1, Options{DerivedMeasures: []measure.Measure{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.columns) != 0 || plain.Stats().IndexedDMeasures != 0 || plain.Stats().IndexedTMeasures != 2 {
		t.Fatalf("index without D-measures: %d columns, stats %+v", len(plain.columns), plain.Stats())
	}
	if _, err := plain.PairInterval(measure.Correlation, interval.AtLeast(0.5)); err == nil {
		t.Fatal("an index without D-measures answered a correlation query")
	}
	if _, _, _, err := plain.PairTopK(measure.Cosine, 3, true); err == nil {
		t.Fatal("an index without D-measures answered a cosine top-k")
	}
	gotCov, err := plain.PairInterval(measure.Covariance, interval.AtLeast(0.1))
	if err != nil {
		t.Fatal(err)
	}
	wantCov, err := idx.PairInterval(measure.Covariance, interval.AtLeast(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotCov, wantCov) {
		t.Fatalf("covariance scan: %d pairs without D-measures, %d with", len(gotCov), len(wantCov))
	}
}

// BenchmarkIndexValueColumn times one fill of the correlation value column
// (columnOf) on an index at the streaming benchmark's scale (168 series × 360
// samples, six clusters), so the layer's cost is reproducible without the
// lifecycle.  Each iteration refills the column into its own buffers, as an
// epoch recycling its spare does.
func BenchmarkIndexValueColumn(b *testing.B) {
	d, err := dataset.GenerateSensor(dataset.SensorConfig{NumSeries: 168, NumSamples: 360, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := symex.Compute(d, symex.Options{
		Cluster:            cluster.Config{K: 6, MaxIterations: 10, MinChanges: 0, Seed: 1},
		CachePseudoInverse: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(d, rel, Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := measure.Lookup(measure.Correlation)
	col := idx.columnOf(sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*col = valueColumn{values: col.values, extremes: col.extremes}
		idx.columnOf(sp)
	}
}
