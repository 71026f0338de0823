package symex

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/timeseries"
)

// mapStore is the relationship store Result used to be — the affHash and
// pivotHash maps filled by a hand-rolled loop — refit through the oracle fits
// (expectedFit: the scalar moment form, the generic affine.Fit where the guard
// keeps the kernel).  It is the oracle of the slot store.
type mapStore struct {
	rels   map[timeseries.Pair]*Relationship
	pivots map[Pivot][]timeseries.Pair
	stats  Stats
}

func (s *mapStore) keep(rel *Relationship) {
	s.rels[rel.Pair] = rel
	s.pivots[rel.Pivot] = append(s.pivots[rel.Pivot], rel.Pair)
}

// refit is the pre-slot-store Refit, verbatim in structure: walk the
// assignment list, carry over what is not stale, fit the rest.
func (s *mapStore) refit(t testing.TB, d *timeseries.DataMatrix, res *Result, stale map[timeseries.Pair]bool) (*mapStore, RefitStats) {
	t.Helper()
	next := &mapStore{rels: map[timeseries.Pair]*Relationship{}, pivots: map[Pivot][]timeseries.Pair{}}
	var rs RefitStats
	fitted := 0
	fitPivots := map[Pivot]bool{}
	for _, a := range res.AssignmentList() {
		if stale != nil && !stale[a.Pair] {
			if r, ok := s.rels[a.Pair]; ok {
				next.keep(r)
				rs.Reused++
			}
			continue
		}
		fitted++
		tr, kernel := expectedFit(t, d, res.Clustering, a.Pair, a.Pivot, true)
		if kernel {
			fitPivots[a.Pivot] = true
		}
		next.keep(&Relationship{Pair: a.Pair, Pivot: a.Pivot, Transform: *tr, Flipped: a.Pivot.Common == a.Pair.V})
		rs.Refit++
	}
	rs.PivotInverses = len(fitPivots)
	next.stats = Stats{
		NumRelationships:          len(next.rels),
		NumPivots:                 len(next.pivots),
		PseudoInverseComputations: len(fitPivots),
		PseudoInverseCacheHits:    fitted - len(fitPivots),
	}
	return next, rs
}

// requireStoreMatchesOracle compares everything the accessors expose.
func requireStoreMatchesOracle(t testing.TB, label string, d *timeseries.DataMatrix, got *Result, want *mapStore) {
	t.Helper()
	if got.Stats != want.stats || got.Len() != len(want.rels) {
		t.Fatalf("%s: stats %+v (Len %d), oracle %+v", label, got.Stats, got.Len(), want.stats)
	}
	for _, pair := range d.AllPairs() {
		g, ok := got.Relationship(pair)
		w, wok := want.rels[pair]
		if ok != wok {
			t.Fatalf("%s: pair %v stored=%v, oracle stored=%v", label, pair, ok, wok)
		}
		if ok && (g.Pair != w.Pair || g.Pivot != w.Pivot || g.Flipped != w.Flipped || transformBits(g.Transform) != transformBits(w.Transform)) {
			t.Fatalf("%s: pair %v is %+v %v, oracle %+v %v", label, pair, g, g.Transform, w, w.Transform)
		}
		if slot, assigned := got.Layout().Slot(pair); assigned && got.At(slot) != g {
			t.Fatalf("%s: pair %v: At(slot) and Relationship disagree", label, pair)
		}
	}
	gotPivots := pivotPairs(got)
	for p, pairs := range want.pivots {
		sorted := slices.Clone(pairs)
		slices.SortFunc(sorted, func(a, b timeseries.Pair) int {
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.V - b.V)
		})
		if !reflect.DeepEqual(gotPivots[p], sorted) {
			t.Fatalf("%s: pivot %v holds %v, oracle %v", label, p, gotPivots[p], sorted)
		}
		pi := slices.Index(got.Layout().Pivots(), p)
		if pi < 0 || got.PivotLen(pi) != len(pairs) {
			t.Fatalf("%s: pivot %v: PivotLen disagrees with the oracle's %d pairs", label, p, len(pairs))
		}
	}
	if len(gotPivots) != len(want.pivots) {
		t.Fatalf("%s: %d live pivots, oracle %d", label, len(gotPivots), len(want.pivots))
	}
	count := 0
	for range got.All() {
		count++
	}
	if count != len(want.rels) {
		t.Fatalf("%s: All yields %d relationships, oracle holds %d", label, count, len(want.rels))
	}
}

// TestSlotStoreMatchesMapOracle drives random selective refits and holds the
// slot store to the map-based oracle after every one.
func TestSlotStoreMatchesMapOracle(t *testing.T) {
	d := correlatedData(t, 46, 3, 15, 80, 0.05)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := (&mapStore{}).refit(t, d, res, nil)
	requireStoreMatchesOracle(t, "Compute", d, res, oracle)

	rng := rand.New(rand.NewSource(3))
	for round := 1; round <= 14; round++ {
		d = slideData(t, d, int64(100+round), 24)
		var stale map[timeseries.Pair]bool
		switch {
		case round%7 == 0: // full refit
		case round%5 == 0: // nothing is stale
			stale = map[timeseries.Pair]bool{}
		default:
			stale = map[timeseries.Pair]bool{}
			for _, a := range res.AssignmentList() {
				switch {
				case rng.Float64() < 0.3:
					stale[a.Pair] = true
				case rng.Float64() < 0.1:
					stale[a.Pair] = false // a false-valued key is not stale
				}
			}
			stale[timeseries.Pair{U: 0, V: 99}] = true // not an assigned pair: ignored
		}
		next, rs, err := Refit(d, res, RefitOptions{Stale: stale, Parallelism: 1 + round%3})
		if err != nil {
			t.Fatal(err)
		}
		nextOracle, wantRS := oracle.refit(t, d, res, stale)
		if rs != wantRS {
			t.Fatalf("round %d: refit stats %+v, oracle %+v", round, rs, wantRS)
		}
		requireStoreMatchesOracle(t, "refit", d, next, nextOracle)
		res, oracle = next, nextOracle
	}
}

// TestRefitLeavesPreviousResultReadable: a result is immutable.  While
// refits build the next epochs from it, readers keep walking it (the race
// detector watches), and afterwards it holds exactly the relationships —
// the same pointers, the same coefficient bits — it held before.
func TestRefitLeavesPreviousResultReadable(t *testing.T) {
	d := correlatedData(t, 47, 3, 14, 60, 0.05)
	prev, err := Compute(d, Options{Cluster: cluster.Config{K: 3, Seed: 1}, CachePseudoInverse: true})
	if err != nil {
		t.Fatal(err)
	}
	type frozen struct {
		rel  *Relationship
		bits [6]uint64
	}
	before := map[timeseries.Pair]frozen{}
	for rel := range prev.All() {
		before[rel.Pair] = frozen{rel, transformBits(rel.Transform)}
	}
	stats := prev.Stats

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				for _, pair := range d.AllPairs() {
					if _, ok := prev.Relationship(pair); ok {
						n++
					}
				}
				for pi := range prev.Layout().Pivots() {
					for range prev.PivotRelationships(pi) {
						n--
					}
				}
				if n != 0 || prev.Len() != prev.Stats.NumRelationships {
					t.Error("a reader saw the previous result change")
					return
				}
			}
		}()
	}
	next := d
	for round := 0; round < 6; round++ {
		next = slideData(t, next, int64(round), 10)
		stale := map[timeseries.Pair]bool{}
		for i, a := range prev.AssignmentList() {
			if (i+round)%3 == 0 {
				stale[a.Pair] = true
			}
		}
		if round == 5 {
			stale = nil
		}
		if _, _, err := Refit(next, prev, RefitOptions{Stale: stale, Parallelism: 2}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	if prev.Stats != stats || prev.Len() != len(before) {
		t.Fatalf("the previous result's counters moved: %+v (Len %d), were %+v (%d)", prev.Stats, prev.Len(), stats, len(before))
	}
	for rel := range prev.All() {
		if was := before[rel.Pair]; was.rel != rel || was.bits != transformBits(rel.Transform) {
			t.Fatalf("pair %v of the previous result changed under Refit", rel.Pair)
		}
	}
}

// TestNewLayoutRejectsBadAssignments: the ways an assignment list can be
// unusable, each reported rather than indexed, and the relationship slices
// NewResult refuses to store against a layout.
func TestNewLayoutRejectsBadAssignments(t *testing.T) {
	good := Assignment{Pair: timeseries.Pair{U: 0, V: 1}, Pivot: Pivot{Common: 0, Cluster: 0}}
	for name, list := range map[string][]Assignment{
		"pair outside the series":   {{Pair: timeseries.Pair{U: 0, V: 3}, Pivot: Pivot{Common: 0}}},
		"non-canonical pair":        {{Pair: timeseries.Pair{U: 1, V: 0}, Pivot: Pivot{Common: 0}}},
		"common series not in pair": {{Pair: timeseries.Pair{U: 0, V: 1}, Pivot: Pivot{Common: 2}}},
		"pair assigned twice":       {good, good},
	} {
		if _, err := NewLayout(3, list); err == nil {
			t.Errorf("%s: NewLayout accepted %v", name, list)
		}
	}
	// 2¹⁶+1 series have more pairs than an int32 slot can number; refused
	// before the dense pair index is allocated.
	if _, err := NewLayout(1<<16+1, []Assignment{good}); err == nil {
		t.Error("NewLayout accepted more series than its int32 pair index holds")
	}
	layout, err := NewLayout(3, []Assignment{good})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := layout.Slot(timeseries.Pair{U: 1, V: 2}); ok {
		t.Fatal("an unassigned pair has a slot")
	}
	if slot, ok := layout.Slot(good.Pair); !ok || slot != 0 || layout.PivotOf(slot) != 0 || len(layout.PivotSlots(0)) != 1 {
		t.Fatal("the assigned pair is not at slot 0 of pivot 0")
	}
	for name, rels := range map[string][]*Relationship{"a slice of the wrong length": nil, "a nil slot": {nil}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewResult accepted %s", name)
				}
			}()
			NewResult(layout, &cluster.Result{}, rels)
		}()
	}
}
