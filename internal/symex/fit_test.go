package symex

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"affinity/internal/affine"
	"affinity/internal/cluster"
	"affinity/internal/lsfd"
	"affinity/internal/mat"
	"affinity/internal/timeseries"
)

// pairMatrices returns the generic-route inputs of one relationship: the
// pivot pair matrix O_p and the target [s_common, s_other].
func pairMatrices(t testing.TB, d *timeseries.DataMatrix, res *Result, pair timeseries.Pair, p Pivot) (op, target *mat.Matrix) {
	t.Helper()
	op, err := res.PivotMatrix(d, p)
	if err != nil {
		t.Fatal(err)
	}
	otherID, err := pair.Other(p.Common)
	if err != nil {
		t.Fatal(err)
	}
	common, _ := d.Series(p.Common)
	other, _ := d.Series(otherID)
	target, err = mat.NewFromColumns(common, other)
	if err != nil {
		t.Fatal(err)
	}
	return op, target
}

// requireGenericFits requires every relationship of res to carry exactly the
// bits the generic affine.Fit produces for it on d.
func requireGenericFits(t testing.TB, label string, d *timeseries.DataMatrix, res *Result, only map[timeseries.Pair]bool) {
	t.Helper()
	for rel := range res.All() {
		pair := rel.Pair
		if only != nil && !only[pair] {
			continue
		}
		op, target := pairMatrices(t, d, res, pair, rel.Pivot)
		want, err := affine.Fit(op, target)
		if err != nil {
			t.Fatal(err)
		}
		if transformBits(rel.Transform) != transformBits(want) {
			t.Fatalf("%s: pair %v pivot %v: transform %v, generic fit %v", label, pair, rel.Pivot, rel.Transform, want)
		}
	}
}

// TestResultsMatchGenericFit: Compute (SYMEX and SYMEX+) and Refit (full and
// selective) must produce the coefficients of the generic mat/affine route
// bit for bit — the contract that let the kernels replace it without
// re-capturing any golden fixture.
func TestResultsMatchGenericFit(t *testing.T) {
	d := correlatedData(t, 41, 3, 14, 90, 0.05)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, cache := range []bool{false, true} {
		res, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: cache})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != d.NumPairs() {
			t.Fatalf("cache=%v: %d relationships, want %d", cache, res.Len(), d.NumPairs())
		}
		requireGenericFits(t, fmt.Sprintf("Compute cache=%v", cache), d, res, nil)
		prev = res
	}

	next := slideData(t, d, 5, 9)
	full, _, err := Refit(next, prev, RefitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireGenericFits(t, "full Refit", next, full, nil)

	stale := map[timeseries.Pair]bool{}
	for i, a := range prev.AssignmentList() {
		if i%3 == 0 {
			stale[a.Pair] = true
		}
	}
	partial, rs, err := Refit(next, prev, RefitOptions{Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Refit != len(stale) || rs.Reused != prev.Len()-len(stale) {
		t.Fatalf("selective refit stats %+v with %d stale pairs", rs, len(stale))
	}
	requireGenericFits(t, "selective Refit", next, partial, stale)
}

// requireSameResult compares everything a consumer can observe of two
// results: relationships by value, every pivot's pair list in order, the
// assignment list and the counters.
func requireSameResult(t testing.TB, label string, got, want *Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.AssignmentList(), want.AssignmentList()) {
		t.Fatalf("%s: assignment lists differ", label)
	}
	if !reflect.DeepEqual(pivotPairs(got), pivotPairs(want)) {
		t.Fatalf("%s: pivot pair lists differ", label)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d relationships, want %d", label, got.Len(), want.Len())
	}
	for w := range want.All() {
		pair := w.Pair
		g, ok := got.Relationship(pair)
		if !ok {
			t.Fatalf("%s: pair %v missing", label, pair)
		}
		if g.Pair != w.Pair || g.Pivot != w.Pivot || g.Flipped != w.Flipped ||
			transformBits(g.Transform) != transformBits(w.Transform) {
			t.Fatalf("%s: pair %v is %+v %v, want %+v %v", label, pair, g, g.Transform, w, w.Transform)
		}
	}
}

// TestFitsIndependentOfParallelism: pivot batching hands whole pivot groups
// to workers, yet Compute and Refit results — including pair order inside
// every pivot's list and the LSFD pruning outcome — are the same at any
// worker count.
func TestFitsIndependentOfParallelism(t *testing.T) {
	d := correlatedData(t, 42, 3, 16, 80, 0.05)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := slideData(t, d, 6, 7)
	for _, maxLSFD := range []float64{0, 0.5} {
		for _, cache := range []bool{false, true} {
			var wantCompute, wantFull, wantPartial *Result
			for _, p := range []int{1, 2, 8} {
				label := fmt.Sprintf("MaxLSFD=%v cache=%v P=%d", maxLSFD, cache, p)
				res, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: cache, MaxLSFD: maxLSFD, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				full, _, err := Refit(next, res, RefitOptions{MaxLSFD: maxLSFD, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				stale := map[timeseries.Pair]bool{}
				for i, a := range res.AssignmentList() {
					if i%4 != 1 {
						stale[a.Pair] = true
					}
				}
				partial, _, err := Refit(next, res, RefitOptions{Stale: stale, MaxLSFD: maxLSFD, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				if p == 1 {
					wantCompute, wantFull, wantPartial = res, full, partial
					continue
				}
				requireSameResult(t, label+" Compute", res, wantCompute)
				requireSameResult(t, label+" full Refit", full, wantFull)
				requireSameResult(t, label+" selective Refit", partial, wantPartial)
			}
		}
	}
}

// TestRefitBookkeeping pins what Refit shares with and derives from the
// previous result: the layout (assignment list and indexes) is shared by
// pointer, not copied, and every pivot's relationships come back in canonical
// pair order — the order the SCAPE sequence stores keep — whichever of them
// were refit.
func TestRefitBookkeeping(t *testing.T) {
	d := correlatedData(t, 43, 3, 12, 60, 0.05)
	prev, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	next := slideData(t, d, 8, 4)
	stale := map[timeseries.Pair]bool{}
	for i, a := range prev.AssignmentList() {
		if i%2 == 0 {
			stale[a.Pair] = true
		}
	}
	res, _, err := Refit(next, prev, RefitOptions{Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout() != prev.Layout() {
		t.Fatal("Refit must share the previous result's layout")
	}
	want := make(map[Pivot][]timeseries.Pair)
	for _, pair := range d.AllPairs() {
		slot, _ := prev.Layout().Slot(pair)
		p := prev.AssignmentList()[slot].Pivot
		want[p] = append(want[p], pair)
	}
	if got := pivotPairs(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("pivot pair lists are not in canonical pair order:\n got %v\nwant %v", got, want)
	}
	for rel := range res.All() {
		if prevRel, _ := prev.Relationship(rel.Pair); (rel == prevRel) == stale[rel.Pair] {
			t.Fatalf("pair %v: stale=%v but shared with the previous result=%v", rel.Pair, stale[rel.Pair], rel == prevRel)
		}
	}
}

// TestRefitAllocations: a full Refit works out of per-worker scratch — it must
// not allocate anything proportional to the window per relationship (the
// generic route copied 2·m floats per fit).
func TestRefitAllocations(t *testing.T) {
	const m = 4096
	d := correlatedData(t, 44, 2, 40, m, 0.05)
	prev, err := Compute(d, Options{Cluster: cluster.Config{K: 2, Seed: 1}, CachePseudoInverse: true})
	if err != nil {
		t.Fatal(err)
	}
	next := slideData(t, d, 9, 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, rs, err := Refit(next, prev, RefitOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Refit != len(prev.AssignmentList()) || res.Len() != rs.Refit {
		t.Fatalf("full refit stats %+v over %d assignments", rs, len(prev.AssignmentList()))
	}
	const scratch = 6 * m * 8 // one sequential worker's pivotFit buffers
	perRelationship := (float64(after.TotalAlloc-before.TotalAlloc) - scratch) / float64(rs.Refit)
	if perRelationship >= 256 {
		t.Fatalf("full Refit allocated %.0f B per relationship beyond scratch at m=%d, want < 256", perRelationship, m)
	}
}

// TestFitShapeErrors: the window and clustering shape checks of the generic
// route survive — a one-sample window, a cluster center of the wrong length
// and a pivot naming an unknown cluster all fail, at any parallelism.
func TestFitShapeErrors(t *testing.T) {
	oneSample, err := timeseries.NewDataMatrix([][]float64{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	unit := &cluster.Result{Centers: [][]float64{{1}}, Assignment: []int{0, 0, 0}}
	d := correlatedData(t, 45, 2, 8, 30, 0.02)
	good, err := cluster.Run(d, cluster.Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shortCenter := &cluster.Result{Centers: [][]float64{good.Centers[0], good.Centers[1][:29]}, Assignment: good.Assignment}
	missingCenter := &cluster.Result{Centers: good.Centers[:1], Assignment: good.Assignment}

	for _, p := range []int{1, 4} {
		for _, cache := range []bool{false, true} {
			opts := Options{CachePseudoInverse: cache, Parallelism: p}
			opts.Clustering = unit
			if _, err := Compute(oneSample, opts); !errors.Is(err, affine.ErrBadShape) {
				t.Fatalf("P=%d cache=%v: one-sample window: err = %v, want affine.ErrBadShape", p, cache, err)
			}
			opts.Clustering = shortCenter
			if _, err := Compute(d, opts); !errors.Is(err, timeseries.ErrShapeMismatch) {
				t.Fatalf("P=%d cache=%v: short center: err = %v, want timeseries.ErrShapeMismatch", p, cache, err)
			}
			opts.Clustering = missingCenter
			if _, err := Compute(d, opts); err == nil || !strings.Contains(err.Error(), "unknown cluster") {
				t.Fatalf("P=%d cache=%v: missing center: err = %v, want an unknown-cluster error", p, cache, err)
			}
		}
		prev, err := Compute(d, Options{Clustering: good, CachePseudoInverse: true})
		if err != nil {
			t.Fatal(err)
		}
		prev.Clustering = shortCenter
		if _, _, err := Refit(d, prev, RefitOptions{Parallelism: p}); !errors.Is(err, timeseries.ErrShapeMismatch) {
			t.Fatalf("P=%d: Refit with a short center: err = %v, want timeseries.ErrShapeMismatch", p, err)
		}
		prev.Clustering = missingCenter
		if _, _, err := Refit(d, prev, RefitOptions{Parallelism: p}); err == nil || !strings.Contains(err.Error(), "unknown cluster") {
			t.Fatalf("P=%d: Refit with a missing center: err = %v, want an unknown-cluster error", p, err)
		}
	}
}

// TestMaxLSFDPrunesByGenericDistance: with a bound set, exactly the pairs
// whose generic-route LSFD exceeds it are pruned, by Compute and by Refit.
func TestMaxLSFDPrunesByGenericDistance(t *testing.T) {
	d := correlatedData(t, 46, 3, 15, 80, 0.05)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 0.5
	check := func(label string, data *timeseries.DataMatrix, res *Result, pruned int) {
		t.Helper()
		wantPruned := 0
		for _, a := range res.AssignmentList() {
			op, target := pairMatrices(t, data, res, a.Pair, a.Pivot)
			dist, err := lsfd.Distance(op, target)
			if err != nil {
				t.Fatal(err)
			}
			_, kept := res.Relationship(a.Pair)
			if kept != !(dist > bound) {
				t.Fatalf("%s: pair %v has LSFD %v against bound %v but kept=%v", label, a.Pair, dist, bound, kept)
			}
			if !kept {
				wantPruned++
			}
		}
		if wantPruned == 0 || wantPruned == len(res.AssignmentList()) {
			t.Fatalf("%s: %d of %d pairs pruned — the bound does not split the pairs", label, wantPruned, len(res.AssignmentList()))
		}
		if pruned != wantPruned {
			t.Fatalf("%s: reported %d pruned pairs, want %d", label, pruned, wantPruned)
		}
	}
	res, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: true, MaxLSFD: bound})
	if err != nil {
		t.Fatal(err)
	}
	check("Compute", d, res, res.Stats.PrunedRelationships)
	next := slideData(t, d, 10, 8)
	refit, rs, err := Refit(next, res, RefitOptions{MaxLSFD: bound})
	if err != nil {
		t.Fatal(err)
	}
	check("Refit", next, refit, rs.Pruned)
}
