package symex

import (
	"math/rand"
	"testing"

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
	if rs.Reused != 0 || rs.Refit != len(prev.Assignments) {
		t.Fatalf("full refit stats = %+v", rs)
	}

	fresh, err := Compute(next, Options{Clustering: prev.Clustering, CachePseudoInverse: true})
	if err != nil {
		t.Fatalf("Compute on slid window: %v", err)
	}
	if len(refitted.Relationships) != len(fresh.Relationships) {
		t.Fatalf("refit has %d relationships, fresh compute %d",
			len(refitted.Relationships), len(fresh.Relationships))
	}
	for pair, fr := range fresh.Relationships {
		rr, ok := refitted.Relationships[pair]
		if !ok {
			t.Fatalf("refit missing pair %v", pair)
		}
		if rr.Pivot != fr.Pivot || rr.Flipped != fr.Flipped {
			t.Fatalf("pair %v: pivot/flip mismatch %+v vs %+v", pair, rr, fr)
		}
		if *rr.Transform != *fr.Transform {
			t.Fatalf("pair %v: transform %v vs %v", pair, rr.Transform, fr.Transform)
		}
	}
}

// TestRefitSelectiveReusesFreshRelationships: pairs not in the stale set must
// carry over the identical transform pointer, and only stale pivots pay a
// pseudo-inverse recomputation.
func TestRefitSelectiveReusesFreshRelationships(t *testing.T) {
	d := correlatedData(t, 6, 3, 10, 60, 0.05)
	prev, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	next := slideData(t, d, 7, 6)

	var stalePair timeseries.Pair
	for pair := range prev.Relationships {
		stalePair = pair
		break
	}
	stale := map[timeseries.Pair]bool{stalePair: true}
	refitted, rs, err := Refit(next, prev, RefitOptions{Stale: stale})
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	if rs.Refit != 1 || rs.Reused != len(prev.Relationships)-1 {
		t.Fatalf("selective refit stats = %+v", rs)
	}
	if rs.PivotInverses != 1 {
		t.Fatalf("PivotInverses = %d, want 1", rs.PivotInverses)
	}
	for pair, rel := range refitted.Relationships {
		if pair == stalePair {
			if rel == prev.Relationships[pair] {
				t.Fatalf("stale pair %v was not re-fitted", pair)
			}
			continue
		}
		if rel != prev.Relationships[pair] {
			t.Fatalf("fresh pair %v was not carried over by pointer", pair)
		}
	}
}

// TestRefitWithoutAssignments exercises the snapshot path: a Result whose
// Assignments slice is empty falls back to reconstructing assignments from
// the relationship map.
func TestRefitWithoutAssignments(t *testing.T) {
	d := correlatedData(t, 8, 3, 9, 50, 0.05)
	prev, err := Compute(d, defaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	prev.Assignments = nil
	next := slideData(t, d, 21, 5)
	refitted, rs, err := Refit(next, prev, RefitOptions{})
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	if len(refitted.Relationships) != len(prev.Relationships) {
		t.Fatalf("refit produced %d relationships, want %d",
			len(refitted.Relationships), len(prev.Relationships))
	}
	if rs.Refit != len(prev.Relationships) {
		t.Fatalf("stats = %+v", rs)
	}
}

// TestRefitWindowMismatch rejects a window whose length no longer matches the
// frozen cluster centers.
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
}
