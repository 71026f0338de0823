package scape

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"affinity/internal/affine"
	"affinity/internal/btree"
	"affinity/internal/cluster"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// The ξ-containers used to be bulk-loaded B-trees over a stable sort of the
// projections; that route is kept here as the oracle the arrays are compared
// against, entry for entry, over pivots shaped to stress the order: equal ξ
// (duplicate β, and −0 next to +0), ±Inf ξ, pivots with ‖α‖ = 0, one-entry
// pivots and pivots left with no entry at all.

// hostileIndexInputs builds an 8-series window whose series 0 is all zeros
// (every pivot keeping it as the common series has α = 0 for both T-measures),
// a made-up two-cluster clustering, and one hand-written relationship per
// pair, pair (u, v) keeping u as the common series.  next is the window slid
// by three samples.  With nan set, two relationships carry a NaN β.
func hostileIndexInputs(t testing.TB, nan bool) (d, next *timeseries.DataMatrix, rel *symex.Result) {
	t.Helper()
	const n, m, slide = 8, 12, 3
	rng := rand.New(rand.NewSource(5))
	series := make([][]float64, n)
	batch := make([][]float64, n)
	for v := range series {
		series[v] = make([]float64, m)
		batch[v] = make([]float64, slide)
		if v == 0 {
			continue
		}
		for i := range series[v] {
			series[v][i] = rng.NormFloat64() + float64(v)
		}
		for i := range batch[v] {
			batch[v][i] = rng.NormFloat64() + float64(v)
		}
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	if next, err = d.SlideCopy(batch); err != nil {
		t.Fatal(err)
	}
	clustering := &cluster.Result{
		Centers:    [][]float64{make([]float64, m), make([]float64, m)},
		Assignment: []int{0, 1, 0, 1, 0, 1, 0, 1},
	}
	for _, c := range clustering.Centers {
		for i := range c {
			c[i] = rng.NormFloat64()
		}
	}

	negZero := math.Copysign(0, -1)
	beta := map[timeseries.Pair][3]float64{
		// Three identical β on pivot (1, ω=1): equal ξ, ordered by pair.
		{U: 1, V: 3}: {0.5, -0.25, 1}, {U: 1, V: 5}: {0.5, -0.25, 1}, {U: 1, V: 7}: {0.5, -0.25, 1},
		// ξ = +Inf and −Inf next to a finite one on pivot (2, ω=1).
		{U: 2, V: 3}: {math.Inf(1), 0, 0}, {U: 2, V: 5}: {math.Inf(-1), 0, 0},
		// ξ = +0 and −0 on pivot (3, ω=0): equal under <, kept in pair order.
		{U: 3, V: 4}: {0, 0, 0}, {U: 3, V: 6}: {negZero, negZero, negZero},
	}
	if nan {
		beta[timeseries.Pair{U: 4, V: 5}] = [3]float64{math.NaN(), 0, 0}
		beta[timeseries.Pair{U: 1, V: 5}] = [3]float64{0, math.NaN(), 1}
	}
	var assignments []symex.Assignment
	var rels []*symex.Relationship
	for _, pair := range d.AllPairs() {
		b, ok := beta[pair]
		if !ok {
			b = [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		if pair == (timeseries.Pair{U: 5, V: 6}) {
			continue // the only pair of pivot (5, ω=0): the pivot is left out
		}
		pivot := symex.Pivot{Common: pair.U, Cluster: clustering.Assignment[pair.V]}
		assignments = append(assignments, symex.Assignment{Pair: pair, Pivot: pivot})
		rels = append(rels, &symex.Relationship{Pair: pair, Pivot: pivot, Transform: affine.Transform{
			A: [2][2]float64{{1, b[0]}, {0, b[1]}}, B: [2]float64{0, b[2]},
		}})
	}
	layout, err := symex.NewLayout(n, assignments)
	if err != nil {
		t.Fatal(err)
	}
	return d, next, symex.NewResult(layout, clustering, rels)
}

// oracleTree builds one (pivot, measure) container the way finishPivotNode
// used to: project the nodes in canonical pair order, stable-sort by ξ,
// bulk-load a B-tree.  The tree answers an interval by brute force: every
// entry, kept if the interval contains its key.
func oracleTree(node *pivotNode, pm *pivotMeasure) *btree.Tree[*sequenceNode] {
	type entry struct {
		xi float64
		sn *sequenceNode
	}
	var entries []entry
	for rank := range node.canon {
		sn := &node.canon[rank]
		entries = append(entries, entry{xi: scalarProjection(pm, sn.beta), sn: sn})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].xi < entries[j].xi })
	keys := make([]float64, len(entries))
	vals := make([]*sequenceNode, len(entries))
	for i, e := range entries {
		keys[i], vals[i] = e.xi, e.sn
	}
	return btree.FromSorted(keys, vals)
}

// scanOracle visits the tree entries whose key lies in iv, in tree order.
func scanOracle[V any](t *btree.Tree[V], iv interval.Interval, fn func(key float64, v V) bool) {
	t.Ascend(func(key float64, v V) bool {
		return !iv.Contains(key) || fn(key, v)
	})
}

type visited struct {
	bits uint64
	sn   *sequenceNode
}

func collect(scan func(fn func(float64, *sequenceNode) bool)) []visited {
	var out []visited
	scan(func(xi float64, sn *sequenceNode) bool {
		out = append(out, visited{math.Float64bits(xi), sn})
		return true
	})
	return out
}

func sameVisits(a, b []visited) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeIntervals returns intervals around every key of a container: each
// pair of probe points under all four bound conventions, plus the
// half-bounded and unbounded forms.
func probeIntervals(keys []float64) []interval.Interval {
	points := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
	for _, k := range keys {
		if !math.IsNaN(k) {
			points = append(points, k, math.Nextafter(k, math.Inf(1)), math.Nextafter(k, math.Inf(-1)))
		}
	}
	ivs := []interval.Interval{interval.All()}
	for _, a := range points {
		ivs = append(ivs, interval.GreaterThan(a), interval.AtLeast(a), interval.LessThan(a), interval.AtMost(a))
		for _, b := range points {
			for _, lo := range []interval.Bound{interval.Closed(a), interval.Open(a)} {
				for _, hi := range []interval.Bound{interval.Closed(b), interval.Open(b)} {
					ivs = append(ivs, interval.New(lo, hi))
				}
			}
		}
	}
	return ivs
}

// requireOracleParity compares every ξ-container of the index with the
// stable-sort + B-tree oracle built from the same sequence store.
func requireOracleParity(t *testing.T, label string, idx *Index) {
	t.Helper()
	for i := range idx.pivots {
		node := &idx.pivots[i]
		for s, m := range idx.tMeasures {
			pm := &node.measures[s]
			want := oracleTree(node, pm)
			got := &pm.xi
			if got.Len() != want.Len() || got.Len() != len(node.canon) {
				t.Fatalf("%s %v %v: %d entries, oracle %d, store %d", label, node.pivot, m, got.Len(), want.Len(), len(node.canon))
			}
			if !sameVisits(collect(got.Ascend), collect(want.Ascend)) {
				t.Fatalf("%s %v %v: iteration order differs from the stable-sort oracle\n got %v", label, node.pivot, m, got.keys)
			}
			gotMin, gotOK := got.MinKey()
			wantMin, wantOK := want.MinKey()
			gotMax, _ := got.MaxKey()
			wantMax, _ := want.MaxKey()
			if gotOK != wantOK || math.Float64bits(gotMin) != math.Float64bits(wantMin) || math.Float64bits(gotMax) != math.Float64bits(wantMax) {
				t.Fatalf("%s %v %v: min/max %v/%v (%v), oracle %v/%v (%v)", label, node.pivot, m, gotMin, gotMax, gotOK, wantMin, wantMax, wantOK)
			}
			for _, iv := range probeIntervals(got.keys) {
				g := collect(func(fn func(float64, *sequenceNode) bool) { got.ascendInterval(iv, fn) })
				w := collect(func(fn func(float64, *sequenceNode) bool) { scanOracle(want, iv, fn) })
				if !sameVisits(g, w) {
					t.Fatalf("%s %v %v: scan of %v visits %d entries, oracle %d", label, node.pivot, m, iv, len(g), len(w))
				}
				if gc := got.countInterval(iv); gc != len(w) {
					t.Fatalf("%s %v %v: count of %v = %d, oracle and scan %d", label, node.pivot, m, iv, gc, len(w))
				}
				// The float-bounded door is the same scan; a NaN bound behaves
				// as it did on the tree.
				if iv.Lo.Unbounded || iv.Hi.Unbounded || iv.Lo.Open || iv.Hi.Open {
					continue
				}
				for _, b := range [][2]float64{{iv.Lo.Value, iv.Hi.Value}, {math.NaN(), iv.Hi.Value}, {iv.Lo.Value, math.NaN()}} {
					g := collect(func(fn func(float64, *sequenceNode) bool) { got.AscendRange(b[0], b[1], fn) })
					w := collect(func(fn func(float64, *sequenceNode) bool) { want.AscendRange(b[0], b[1], fn) })
					if !sameVisits(g, w) {
						t.Fatalf("%s %v %v: AscendRange(%v, %v) visits %d entries, oracle %d", label, node.pivot, m, b[0], b[1], len(g), len(w))
					}
				}
			}
		}
	}
}

func TestXiContainersMatchStableSortTreeOracle(t *testing.T) {
	d, next, rel := hostileIndexInputs(t, false)
	// A few stale pairs (some stores shared, some re-derived), then half,
	// three quarters and all of them.
	staleSets := []map[timeseries.Pair]bool{
		{{U: 1, V: 5}: true, {U: 2, V: 3}: true, {U: 6, V: 7}: true, {U: 0, V: 4}: true},
		staleSubset(rel, 0.5, 3), staleSubset(rel, 0.75, 3), staleSubset(rel, 1, 3),
	}
	for _, p := range []int{1, 2, 8} {
		idx, err := Build(d, rel, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		// 12 assigned pivots, one node each.
		if len(rel.Layout().Pivots()) != 12 || idx.NumPivots() != 12 {
			t.Fatalf("P=%d: %d nodes over %d assigned pivots, want 12 over 12", p, idx.NumPivots(), len(rel.Layout().Pivots()))
		}
		shapes := map[string]bool{}
		for _, node := range idx.pivots {
			for s := range node.measures {
				pm := &node.measures[s]
				if pm.alphaNorm == 0 {
					shapes["zero norm"] = true
				}
				if pm.xi.Len() == 1 {
					shapes["one entry"] = true
				}
				for i, xi := range pm.xi.keys {
					if math.IsInf(xi, 0) {
						shapes["infinite"] = true
					}
					if i > 0 && xi == pm.xi.keys[i-1] {
						shapes["equal"] = true
						if timeseries.ComparePairs(pm.xi.node(i-1).pair, pm.xi.node(i).pair) >= 0 {
							t.Fatalf("P=%d %v: equal ξ not in canonical pair order", p, node.pivot)
						}
					}
				}
			}
		}
		if len(shapes) != 4 {
			t.Fatalf("P=%d: the inputs only produced the container shapes %v", p, shapes)
		}
		requireOracleParity(t, "Build", idx)

		refit, _, err := symex.Refit(next, rel, symex.RefitOptions{Stale: map[timeseries.Pair]bool{}})
		if err != nil {
			t.Fatal(err)
		}
		for i, stale := range staleSets {
			updated, us, err := idx.Update(next, refit, stale, UpdateOptions{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if us.StoresCloned == 0 || (i == 0 && us.StoresShared == 0) {
				t.Fatalf("P=%d: update stats %+v for %d stale pairs, want re-derived stores (and shared ones beside a few stale pairs)", p, us, len(stale))
			}
			requireOracleParity(t, fmt.Sprintf("Update with %d stale pairs", len(stale)), updated)
		}
	}
}

// TestNaNProjectionHasADefinedPlace: a NaN ξ — reachable only from an
// overflowed transform — sorts first in its container, where no bound
// comparison is true of it: Build and Update accept it, no range scan, count
// or top-k returns it, and the exact row counts still equal the scans.
func TestNaNProjectionHasADefinedPlace(t *testing.T) {
	d, next, rel := hostileIndexInputs(t, true)
	poisoned := map[timeseries.Pair]bool{{U: 4, V: 5}: true, {U: 1, V: 5}: true}
	check := func(label string, idx *Index) {
		t.Helper()
		found := 0
		for _, node := range idx.pivots {
			for s, m := range idx.tMeasures {
				pm := &node.measures[s]
				nans := 0
				for i, xi := range pm.xi.keys {
					if math.IsNaN(xi) {
						nans++
						if nans != i+1 {
							t.Fatalf("%s %v %v: NaN ξ at position %d, behind a number: %v", label, node.pivot, m, i, pm.xi.keys)
						}
					}
				}
				found += nans
				for _, iv := range probeIntervals(pm.xi.keys) {
					visits := collect(func(fn func(float64, *sequenceNode) bool) { pm.xi.ascendInterval(iv, fn) })
					for _, v := range visits {
						if math.IsNaN(math.Float64frombits(v.bits)) {
							t.Fatalf("%s %v %v: scan of %v returned a NaN ξ", label, node.pivot, m, iv)
						}
					}
					if c := pm.xi.countInterval(iv); !iv.Empty() && c != len(visits) {
						t.Fatalf("%s %v %v: count of %v = %d, scan visits %d", label, node.pivot, m, iv, c, len(visits))
					}
				}
				if min, ok := pm.xi.MinKey(); ok && math.IsNaN(min) {
					t.Fatalf("%s %v %v: MinKey is NaN", label, node.pivot, m)
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s: no NaN ξ in the index — the inputs lost their poison", label)
		}
		for _, m := range []measure.Measure{measure.Covariance, measure.DotProduct, measure.Correlation, measure.EuclideanDistance} {
			for _, iv := range []interval.Interval{interval.All(), interval.AtMost(1e300), interval.GreaterThan(-1e300), interval.Between(-1, 1)} {
				pairs, err := idx.PairInterval(m, iv)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range pairs {
					if poisoned[e] {
						t.Fatalf("%s: %v %v returned pair %v, whose ξ is NaN", label, m, iv, e)
					}
				}
				if sel, err := idx.EstimateSelectivity(PairQuery{Measure: m, Interval: iv}); err != nil || sel.Rows != len(pairs) {
					t.Fatalf("%s: %v %v: count %d (%v), scan returned %d", label, m, iv, sel.Rows, err, len(pairs))
				}
			}
			for _, largest := range []bool{true, false} {
				requireNoNaNBound(t, idx, m, largest)
				pairs, values, _, err := idx.PairTopK(m, 40, largest)
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range pairs {
					if poisoned[e] || math.IsNaN(values[i]) {
						t.Fatalf("%s: top-k of %v ranked pair %v with value %v", label, m, e, values[i])
					}
				}
			}
		}
	}
	for _, p := range []int{1, 2, 8} {
		idx, err := Build(d, rel, Options{Parallelism: p})
		if err != nil {
			t.Fatalf("P=%d: Build: %v", p, err)
		}
		check("Build", idx)
		refit, _, err := symex.Refit(next, rel, symex.RefitOptions{Stale: map[timeseries.Pair]bool{}})
		if err != nil {
			t.Fatal(err)
		}
		updated, _, err := idx.Update(next, refit, map[timeseries.Pair]bool{{U: 4, V: 5}: true, {U: 2, V: 7}: true},
			UpdateOptions{Parallelism: p})
		if err != nil {
			t.Fatalf("P=%d: Update: %v", p, err)
		}
		check("Update", updated)
	}
}

// TestEmptyXiContainer: the container of a pivot with no entries answers
// every operation without touching its (nil) slices.
func TestEmptyXiContainer(t *testing.T) {
	var a xiArray
	if a.Len() != 0 || rankBelow(a.keys, 0) != 0 || rankThrough(a.keys, 0) != 0 {
		t.Fatal("an empty container counts entries")
	}
	if _, ok := a.MinKey(); ok {
		t.Fatal("an empty container has a minimum")
	}
	if _, ok := a.MaxKey(); ok {
		t.Fatal("an empty container has a maximum")
	}
	visit := func(float64, *sequenceNode) bool { t.Fatal("an empty container visited an entry"); return false }
	a.Ascend(visit)
	a.AscendRange(math.Inf(-1), math.Inf(1), visit)
	if c := a.countInterval(interval.All()); c != 0 {
		t.Fatalf("count over an empty container = %d", c)
	}
}

// The location trees used to be B-trees filled by one insert per series, in
// series order; that route is the oracle the sorted location columns are
// compared against, over values shaped to stress the order: duplicates, −0
// next to +0, ±Inf, a NaN estimate, and columns of one and two series.

// columnIndex returns an index holding one location column, for the mean,
// over values[id], filled as if by a first query.
func columnIndex(values []float64) *Index {
	entries := make([]xiEntry, len(values))
	for id, v := range values {
		entries[id] = xiEntry{xi: v, rank: int32(id)}
	}
	idx := &Index{lMeasures: []measure.Measure{measure.Mean}, location: make([]locationColumn, 1)}
	col := &idx.location[0]
	col.once.Do(func() { col.fill(entries) })
	return idx
}

// locationOracle inserts every series' value into a B-tree in series order.
// A NaN has no defined place in a tree and is left out; no scan of a column
// may reach one either.
func locationOracle(values []float64) *btree.Tree[timeseries.SeriesID] {
	tree := btree.New[timeseries.SeriesID]()
	for id, v := range values {
		if !math.IsNaN(v) {
			tree.Insert(v, timeseries.SeriesID(id))
		}
	}
	return tree
}

func TestLocationColumnsMatchInsertOrderTreeOracle(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(9))
	few := make([]float64, 40)
	for i := range few {
		few[i] = float64(rng.Intn(7) - 3)
	}
	for name, values := range map[string][]float64{
		"one series":     {3},
		"one NaN series": {nan},
		"two series":     {2, -1},
		"two equal":      {1, 1},
		"zeros":          {0, negZero, 0, negZero, 1},
		"duplicates":     {5, 1, 5, 1, 5, 1, 3},
		"infinities":     {inf, 0, -inf, inf, -inf, 7},
		"NaN estimates":  {1, nan, 0, nan, 1, -inf},
		"few values":     few,
	} {
		idx, want := columnIndex(values), locationOracle(values)
		for _, iv := range probeIntervals(values) {
			got, err := idx.SeriesInterval(measure.Mean, iv)
			if iv.Empty() {
				if err == nil {
					t.Fatalf("%s: the empty interval %v was answered", name, iv)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			var w []timeseries.SeriesID
			scanOracle(want, iv, func(_ float64, id timeseries.SeriesID) bool {
				w = append(w, id)
				return true
			})
			if !slices.Equal(got, w) {
				t.Fatalf("%s: %v selects series %v, the tree %v", name, iv, got, w)
			}
			sel, err := idx.EstimateSelectivity(PairQuery{Measure: measure.Mean, Interval: iv})
			if err != nil || sel.Rows != len(w) {
				t.Fatalf("%s: count of %v = %+v (%v), scan returns %d", name, iv, sel, err, len(w))
			}
		}

		// Top-k: the tree's entries — by value, equal values in series order —
		// stably re-sorted for the direction.
		type entry struct {
			id    timeseries.SeriesID
			value float64
		}
		for _, largest := range []bool{true, false} {
			var ranking []entry
			want.Ascend(func(v float64, id timeseries.SeriesID) bool {
				ranking = append(ranking, entry{id, v})
				return true
			})
			if largest {
				sort.SliceStable(ranking, func(i, j int) bool { return ranking[i].value > ranking[j].value })
			}
			for _, k := range []int{1, 2, len(values), len(values) + 3} {
				ids, vals, err := idx.SeriesTopK(measure.Mean, k, largest)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != min(k, len(ranking)) || len(vals) != len(ids) {
					t.Fatalf("%s: top-%d (largest %v) returns %d series and %d values of %d ranked", name, k, largest, len(ids), len(vals), len(ranking))
				}
				for i := range ids {
					if ids[i] != ranking[i].id || math.Float64bits(vals[i]) != math.Float64bits(ranking[i].value) {
						t.Fatalf("%s: top-%d (largest %v) ranks series %d (%v) at %d, the tree %d (%v)",
							name, k, largest, ids[i], vals[i], i, ranking[i].id, ranking[i].value)
					}
				}
			}
		}
	}
}

// TestBuildSortsLocationEstimates: the same columns through the front door —
// relationships whose transforms put a chosen value (a duplicate, ±Inf, a
// NaN) on every series but the all-zero series 0, for every L-measure.
func TestBuildSortsLocationEstimates(t *testing.T) {
	d, next, rel := hostileIndexInputs(t, false)
	values := []float64{0, 1, math.NaN(), 1, math.Inf(1), -2, math.Inf(-1), 0}
	rels := relsOf(rel)
	for v := 1; v < len(values); v++ {
		pair := timeseries.Pair{U: 0, V: timeseries.SeriesID(v)} // the smallest pair estimating v
		slot, ok := rel.Layout().Slot(pair)
		if !ok {
			t.Fatalf("no assignment for %v", pair)
		}
		rels[slot] = &symex.Relationship{Pair: pair, Pivot: rels[slot].Pivot, Transform: affine.Transform{
			A: [2][2]float64{{1, 0}, {0, 0}}, B: [2]float64{0, values[v]},
		}}
	}
	rel = symex.NewResult(rel.Layout(), rel.Clustering, rels)
	want := &columnIndex(values).location[0]
	check := func(label string, idx *Index) {
		t.Helper()
		for _, m := range idx.lMeasures {
			got, _, err := idx.locationOf(m)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.ids, want.ids) {
				t.Fatalf("%s %v: column order %v, want %v", label, m, got.ids, want.ids)
			}
			for i := range want.keys {
				if math.Float64bits(got.keys[i]) != math.Float64bits(want.keys[i]) {
					t.Fatalf("%s %v: entry %d = %v, want %v", label, m, i, got.keys[i], want.keys[i])
				}
			}
		}
	}
	idx, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.lMeasures) != 3 {
		t.Fatalf("index over L-measures %v", idx.lMeasures)
	}
	check("Build", idx)
	upd, _, err := idx.Update(next, rel, map[timeseries.Pair]bool{}, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("Update", upd)
	loc, err := BuildLocationOnly(next, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("BuildLocationOnly", loc)
}
