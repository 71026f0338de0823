package symex

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"affinity/internal/cluster"
	"affinity/internal/timeseries"
)

// mapExplorer is the exploration phase as it was before the pair flags went
// dense: Algorithm 2's marching anchors and the safety sweep, with the
// covered pairs kept in a map.  It is the oracle of Compute's exploration.
type mapExplorer struct {
	n           int
	clustering  *cluster.Result
	limit       int
	assigned    map[timeseries.Pair]bool
	assignments []Assignment
}

func (ex *mapExplorer) done() bool { return ex.limit > 0 && len(ex.assignments) >= ex.limit }

func (ex *mapExplorer) assign(e timeseries.Pair, common timeseries.SeriesID) {
	if ex.assigned[e] {
		return
	}
	other, _ := e.Other(common)
	ex.assigned[e] = true
	ex.assignments = append(ex.assignments, Assignment{Pair: e, Pivot: Pivot{Common: common, Cluster: ex.clustering.Assignment[other]}})
}

func (ex *mapExplorer) createPivots(ez timeseries.Pair) {
	n := timeseries.SeriesID(ex.n)
	if ez.U < 0 || ez.V >= n || !ez.Valid() {
		return
	}
	for v := ez.U + 1; v < n && !ex.done(); v++ {
		ex.assign(timeseries.Pair{U: ez.U, V: v}, ez.U)
	}
	for u := timeseries.SeriesID(0); u < ez.V && !ex.done(); u++ {
		ex.assign(timeseries.Pair{U: u, V: ez.V}, ez.V)
	}
}

// mapExplore returns the assignment list of the map-based exploration.
func mapExplore(n int, clustering *cluster.Result, limit int) []Assignment {
	ex := &mapExplorer{n: n, clustering: clustering, limit: limit, assigned: make(map[timeseries.Pair]bool)}
	ee := timeseries.Pair{U: 0, V: timeseries.SeriesID(n - 1)}
	mid := timeseries.SeriesID((n - 1) / 2)
	ew := timeseries.Pair{U: mid, V: mid + 1}
	if int(ew.V) >= n {
		ew = ee
	}
	flip := false
	for steps := 0; steps < n && !ex.done(); steps++ {
		if !flip {
			ex.createPivots(ee)
			ee = timeseries.Pair{U: ee.U + 1, V: ee.V - 1}
		} else {
			ex.createPivots(ew)
			ew = timeseries.Pair{U: ew.U - 1, V: ew.V + 1}
		}
		flip = !flip
		if !ee.Valid() || !ew.Valid() || int(ew.V) >= n {
			break
		}
		if ee == ew {
			ex.createPivots(ee)
			break
		}
	}
	for u := 0; u < n-1 && !ex.done(); u++ {
		for v := u + 1; v < n && !ex.done(); v++ {
			e := timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)}
			ex.assign(e, e.U)
		}
	}
	return ex.assignments
}

// mapLayout is NewLayout's indexes as they were built with a map of pivots:
// the distinct pivots sorted in (Common, Cluster) order, each pivot's slots in
// canonical pair order, and each pair's slot.
type mapLayout struct {
	pivots  []Pivot
	byPivot map[Pivot][]int
	slotOf  map[timeseries.Pair]int
}

func newMapLayout(assignments []Assignment) mapLayout {
	l := mapLayout{byPivot: make(map[Pivot][]int), slotOf: make(map[timeseries.Pair]int)}
	for slot, a := range assignments {
		if _, ok := l.byPivot[a.Pivot]; !ok {
			l.pivots = append(l.pivots, a.Pivot)
		}
		l.byPivot[a.Pivot] = append(l.byPivot[a.Pivot], slot)
		l.slotOf[a.Pair] = slot
	}
	slices.SortFunc(l.pivots, func(a, b Pivot) int {
		return cmp.Or(cmp.Compare(a.Common, b.Common), cmp.Compare(a.Cluster, b.Cluster))
	})
	for p, slots := range l.byPivot {
		slices.SortFunc(slots, func(a, b int) int {
			return timeseries.ComparePairs(assignments[a].Pair, assignments[b].Pair)
		})
		l.byPivot[p] = slots
	}
	return l
}

// TestExplorationMatchesMapOracle: the dense pair flags and the dense pivot
// index produce exactly what the maps did — the assignment list in the same
// order, the same pivots in the same order, every pivot's slots and every
// pair's slot — for tiny to benchmark-sized n, one and six clusters, and
// relationship limits from one to none.
func TestExplorationMatchesMapOracle(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 168} {
		d := correlatedData(t, int64(n), 3, n, 12, 0.1)
		for _, k := range []int{1, 6} {
			k = min(k, n)
			clustering, err := cluster.Run(d, cluster.Config{K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{0, 1, n, n * (n - 1) / 4} {
				label := fmt.Sprintf("n=%d k=%d limit=%d", n, k, limit)
				res, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: true, MaxRelationships: limit})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := mapExplore(n, clustering, limit)
				if got := res.AssignmentList(); !slices.Equal(got, want) {
					t.Fatalf("%s: assignments\n%v\nwant\n%v", label, got, want)
				}
				oracle := newMapLayout(want)
				l := res.Layout()
				if !slices.Equal(l.Pivots(), oracle.pivots) {
					t.Fatalf("%s: pivots %v, want %v", label, l.Pivots(), oracle.pivots)
				}
				for pi, p := range l.Pivots() {
					got := make([]int, 0, len(l.PivotSlots(pi)))
					for _, slot := range l.PivotSlots(pi) {
						got = append(got, int(slot))
						if l.PivotOf(int(slot)) != pi {
							t.Fatalf("%s: slot %d is in pivot %d's slots but PivotOf says %d", label, slot, pi, l.PivotOf(int(slot)))
						}
					}
					if !slices.Equal(got, oracle.byPivot[p]) {
						t.Fatalf("%s: pivot %v slots %v, want %v", label, p, got, oracle.byPivot[p])
					}
				}
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						e := timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)}
						slot, ok := l.Slot(e)
						wantSlot, wantOK := oracle.slotOf[e]
						if ok != wantOK || ok && slot != wantSlot {
							t.Fatalf("%s: Slot(%v) = %d, %v, want %d, %v", label, e, slot, ok, wantSlot, wantOK)
						}
					}
				}
			}
		}
	}
}

// TestComputeRejectsTooManySeriesUpFront: more series than the layout's
// int32 pair index can number are rejected before anything walks or
// allocates the n(n−1)/2 pairs — in well under a second, not after the
// exploration.
func TestComputeRejectsTooManySeriesUpFront(t *testing.T) {
	const n = 1<<16 + 1
	rows := make([][]float64, n)
	for v := range rows {
		rows[v] = []float64{float64(v), 1, float64(-v)}
	}
	d, err := timeseries.NewDataMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	clustering := &cluster.Result{Centers: [][]float64{{0, 1, 0}}, Assignment: make([]int, n)}
	start := time.Now()
	_, err = Compute(d, Options{Clustering: clustering, CachePseudoInverse: true})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "exceed the layout's int32 pair index") {
		t.Fatalf("Compute over %d series: err = %v, want the pair-index bound", n, err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Compute over %d series took %v to reject them", n, elapsed)
	}
}

// TestUnknownClusterRejectedUpFront: Compute rejects a supplied clustering
// that puts a series outside its clusters [0, k) — negative or past the last
// centre, however large — with the unknown-cluster error before it explores,
// and NewLayout rejects a pivot naming a negative cluster.
func TestUnknownClusterRejectedUpFront(t *testing.T) {
	d := correlatedData(t, 47, 2, 6, 20, 0.05)
	for _, bad := range []int{-1, 2, 1 << 40} {
		clustering := &cluster.Result{
			Centers:    [][]float64{make([]float64, 20), make([]float64, 20)},
			Assignment: []int{0, 1, bad, 0, 1, 0},
		}
		want := fmt.Sprintf("series 2 is assigned to unknown cluster %d (k=2)", bad)
		for _, cache := range []bool{false, true} {
			_, err := Compute(d, Options{Clustering: clustering, CachePseudoInverse: cache})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ω=%d cache=%v: err = %v, want %q", bad, cache, err, want)
			}
		}
	}
	_, err := NewLayout(3, []Assignment{
		{Pair: timeseries.Pair{U: 0, V: 1}, Pivot: Pivot{Common: 0, Cluster: 0}},
		{Pair: timeseries.Pair{U: 0, V: 2}, Pivot: Pivot{Common: 0, Cluster: -1}},
	})
	if err == nil || !strings.Contains(err.Error(), "invalid assignment") {
		t.Fatalf("NewLayout with a negative cluster: err = %v, want an invalid assignment", err)
	}
}
