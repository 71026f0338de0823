package symex

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/timeseries"
)

// slideData returns a copy of d slid forward by `slide` fresh samples drawn
// from the same generator family.
func slideData(t testing.TB, d *timeseries.DataMatrix, seed int64, slide int) *timeseries.DataMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	batch := make([][]float64, d.NumSeries())
	for v := range batch {
		s, err := d.Series(timeseries.SeriesID(v))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, slide)
		for i := range b {
			// Continue each series as a noisy random walk from its last value
			// so the slid window stays well-conditioned.
			b[i] = s[len(s)-1] + 0.1*float64(i+1) + 0.05*rng.NormFloat64()
		}
		batch[v] = b
	}
	next, err := d.SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestRefitAllMatchesComputeOnSameClustering: a full refit on the slid window
// must produce exactly the relationships Compute produces on the same window
// with the same (frozen) clustering.
func TestRefitAllMatchesComputeOnSameClustering(t *testing.T) {
	d := correlatedData(t, 5, 3, 12, 80, 0.05)
	prev, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}

	next := slideData(t, d, 99, 10)
	refitted, rs, err := Refit(next, prev, RefitOptions{})
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	if rs.Reused != 0 || rs.Refit != len(prev.AssignmentList()) {
		t.Fatalf("full refit stats = %+v", rs)
	}

	fresh, err := Compute(next, Options{Clustering: prev.Clustering, CachePseudoInverse: true})
	if err != nil {
		t.Fatalf("Compute on slid window: %v", err)
	}
	if refitted.Len() != fresh.Len() {
		t.Fatalf("refit has %d relationships, fresh compute %d",
			refitted.Len(), fresh.Len())
	}
	for pair, fr := range relMap(fresh) {
		rr, ok := relMap(refitted)[pair]
		if !ok {
			t.Fatalf("refit missing pair %v", pair)
		}
		if rr.Pivot != fr.Pivot || rr.Flipped != fr.Flipped {
			t.Fatalf("pair %v: pivot/flip mismatch %+v vs %+v", pair, rr, fr)
		}
		if rr.Transform != fr.Transform {
			t.Fatalf("pair %v: transform %v vs %v", pair, rr.Transform, fr.Transform)
		}
	}
}

// TestRefitSelectiveReusesFreshRelationships: pairs not in the stale set must
// carry over the identical transform pointer, and the one stale pair is refit
// by the moment form — no pseudo-inverse at all on this well-conditioned
// window.
func TestRefitSelectiveReusesFreshRelationships(t *testing.T) {
	d := correlatedData(t, 6, 3, 10, 60, 0.05)
	prev, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	next := slideData(t, d, 7, 6)

	var stalePair timeseries.Pair
	for pair := range relMap(prev) {
		stalePair = pair
		break
	}
	stale := map[timeseries.Pair]bool{stalePair: true}
	refitted, rs, err := Refit(next, prev, RefitOptions{Stale: stale})
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	if rs.Refit != 1 || rs.Reused != prev.Len()-1 {
		t.Fatalf("selective refit stats = %+v", rs)
	}
	if rs.PivotInverses != 0 {
		t.Fatalf("PivotInverses = %d, want 0", rs.PivotInverses)
	}
	for pair, rel := range relMap(refitted) {
		if pair == stalePair {
			if rel == relMap(prev)[pair] {
				t.Fatalf("stale pair %v was not re-fitted", pair)
			}
			continue
		}
		if rel != relMap(prev)[pair] {
			t.Fatalf("fresh pair %v was not carried over by pointer", pair)
		}
	}
}

// TestRefitWithoutAssignments exercises the snapshot path: a result rebuilt
// from some of its relationships alone — a snapshot keeps no assignment list,
// one written by an engine that pruned relationships lost those pairs, and
// the relationships arrive in pair order — refits every one of them to the
// bits the original result's refit gives.
func TestRefitWithoutAssignments(t *testing.T) {
	d := correlatedData(t, 46, 3, 15, 80, 0.05)
	prev, err := Compute(d, Options{Cluster: cluster.Config{K: 3, Seed: 1}, CachePseudoInverse: true})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	var assignments []Assignment
	var rels []*Relationship
	for i, pair := range d.AllPairs() {
		if rel, ok := prev.Relationship(pair); ok && i%3 != 0 {
			assignments = append(assignments, Assignment{Pair: pair, Pivot: rel.Pivot})
			rels = append(rels, rel)
		}
	}
	layout, err := NewLayout(d.NumSeries(), assignments)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewResult(layout, prev.Clustering, rels)
	if restored.Len() != len(rels) || restored.Stats.NumPivots != len(layout.Pivots()) {
		t.Fatalf("restored %d relationships over %d pivots, want %d over %d",
			restored.Len(), restored.Stats.NumPivots, len(rels), len(layout.Pivots()))
	}
	next := slideData(t, d, 21, 5)
	refitted, rs, err := Refit(next, restored, RefitOptions{})
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	if refitted.Len() != len(rels) || rs.Refit != len(rels) {
		t.Fatalf("refit produced %d relationships (stats %+v), want %d", refitted.Len(), rs, len(rels))
	}
	want, _, err := Refit(next, prev, RefitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for rel := range refitted.All() {
		w, ok := want.Relationship(rel.Pair)
		if !ok || rel.Pivot != w.Pivot || rel.Flipped != w.Flipped || rel.Transform != w.Transform {
			t.Fatalf("pair %v: restored refit %+v, original refit %+v", rel.Pair, rel, w)
		}
	}
}

// TestRefitWindowMismatch rejects a window whose length no longer matches the
// frozen cluster centers, and a previous result without a clustering.
func TestRefitWindowMismatch(t *testing.T) {
	d := correlatedData(t, 9, 3, 8, 40, 0.05)
	prev, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	shorter, err := d.Window(0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Refit(shorter, prev, RefitOptions{}); err == nil {
		t.Fatal("refit with mismatched window length should fail")
	}
	if _, _, err := Refit(d, &Result{}, RefitOptions{}); err == nil {
		t.Fatal("refit of a result without a clustering should fail")
	}
}

// relationshipValues copies every relationship of r, in slot order.
func relationshipValues(r *Result) []Relationship {
	out := make([]Relationship, 0, r.Len())
	for rel := range r.All() {
		out = append(out, *rel)
	}
	return out
}

// A full Refit writes its relationships into a slab, and a full Refit
// recycling that result writes into the same slab unless a younger result
// shares the relationships — a partial Refit of it, a Subset of it, or a
// caller that pinned it — and the sharing result keeps its bits.  Either way
// the refit's relationships are the bits Compute fits on the same window.
func TestFullRefitRespectsPins(t *testing.T) {
	d := correlatedData(t, 8, 3, 14, 60, 0.05)
	base, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := slideData(t, d, 1, 6), slideData(t, d, 2, 9)
	refit := func(w *timeseries.DataMatrix, prev *Result, opts RefitOptions) *Result {
		t.Helper()
		r, _, err := Refit(w, prev, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	slabOwner := func() *Result {
		r := refit(d1, base, RefitOptions{})
		if r.slab == nil || r.At(0) != &r.slab[0] {
			t.Fatal("a full refit has no relationship slab")
		}
		return r
	}
	fresh, err := Compute(d2, Options{Clustering: base.Clustering, CachePseudoInverse: true})
	if err != nil {
		t.Fatal(err)
	}
	want := relationshipValues(fresh)
	for _, share := range []string{"none", "partial refit", "subset", "pin"} {
		owner := slabOwner()
		slab := &owner.slab[0]
		var sharer *Result
		switch share {
		case "partial refit":
			stale := map[timeseries.Pair]bool{owner.At(0).Pair: true, owner.At(owner.Len() - 1).Pair: true}
			sharer = refit(d2, owner, RefitOptions{Stale: stale})
		case "subset":
			if sharer, err = owner.Subset([]int32{0, 3, 5}); err != nil {
				t.Fatal(err)
			}
		case "pin":
			// What a shard coordinator's merge does: a result assembled from
			// the owner's relationships, after pinning it.
			owner.Pin()
			rels := make([]*Relationship, owner.Len())
			for slot := range rels {
				rels[slot] = owner.At(slot)
			}
			sharer = NewResult(owner.Layout(), owner.Clustering, rels)
		}
		var held []Relationship
		if sharer != nil {
			held = relationshipValues(sharer)
		}
		prev := refit(d1, base, RefitOptions{})
		next := refit(d2, prev, RefitOptions{Recycle: owner})
		if got := relationshipValues(next); !slices.Equal(got, want) {
			t.Fatalf("%s: the full refit into the recycled result differs from Compute", share)
		}
		if reused := next.At(0) == slab; reused != (share == "none") {
			t.Fatalf("%s: the refit reused the recycled slab: %v", share, reused)
		}
		if sharer != nil && !slices.Equal(relationshipValues(sharer), held) {
			t.Fatalf("%s: the full refit wrote into relationships a younger result shares", share)
		}
	}
}

// TestRefitRecycleAllocations: a full Refit into a recyclable result whose
// window memo the caller filled (as the engine does before it refits)
// allocates O(1) bytes — the result, the fitter and pooled scratch that
// missed — and nothing per relationship: the slots, the relationship slab and
// the pair covariances are the recycled result's.
func TestRefitRecycleAllocations(t *testing.T) {
	const m = 256
	d := correlatedData(t, 45, 3, 90, m, 0.05)
	base, err := Compute(d, Options{Cluster: cluster.Config{K: 3, Seed: 1}, CachePseudoInverse: true})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2, d3 := slideData(t, d, 1, 8), slideData(t, d, 2, 8), slideData(t, d, 3, 8)
	refit := func(w *timeseries.DataMatrix, prev *Result, opts RefitOptions) *Result {
		t.Helper()
		r, _, err := Refit(w, prev, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	owner := refit(d1, base, RefitOptions{})
	prev := refit(d2, base, RefitOptions{})
	if _, err := prev.PivotTerms(d3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := prev.CenterCovariances(d3, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, rs, err := Refit(d3, prev, RefitOptions{Recycle: owner})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Refit != next.Len() || next.Len() < 1000 {
		t.Fatalf("full refit stats %+v over %d relationships", rs, next.Len())
	}
	// Pooled fit scratch that missed costs at most a worker's kernel buffers
	// and its lists of kernel.BlockPairs pairs; a relationship object per
	// pair would cost over 300 KB here.
	const budget = 6*m*8 + 32<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("a full Refit into a recycled result allocated %d B over %d relationships, want at most %d", got, next.Len(), budget)
	}
}
