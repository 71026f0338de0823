package symex

import (
	"math/rand"
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
