package scape

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// slidingDataset builds two overlapping windows of the same generated series
// (the second slid forward by slide samples) plus the SYMEX+ result over the
// first window.
func slidingDataset(t testing.TB, seed int64, n, m, slide int) (d1, d2 *timeseries.DataMatrix, rel1 *symex.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const groups = 3
	long := m + slide
	bases := make([][]float64, groups)
	for g := range bases {
		b := make([]float64, long)
		for i := range b {
			b[i] = math.Sin(float64(i)*0.03*float64(g+1)) + 0.4*math.Cos(float64(i)*0.011*float64(g+2))
		}
		bases[g] = b
	}
	w1 := make([][]float64, n)
	w2 := make([][]float64, n)
	for s := range w1 {
		g := s % groups
		scale := 0.5 + rng.Float64()*2
		offset := rng.NormFloat64() * 0.5
		col := make([]float64, long)
		for i := range col {
			col[i] = scale*bases[g][i] + offset + rng.NormFloat64()*0.02
		}
		w1[s] = col[:m]
		w2[s] = col[slide:]
	}
	var err error
	d1, err = timeseries.NewDataMatrix(w1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err = timeseries.NewDataMatrix(w2)
	if err != nil {
		t.Fatal(err)
	}
	rel1, err = symex.Compute(d1, symex.Options{
		Cluster:            cluster.Config{K: groups, MaxIterations: 10, MinChanges: 0, Seed: 1},
		CachePseudoInverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d1, d2, rel1
}

// assertIndexEquivalent runs the full query surface over both indexes and
// requires byte-identical answers (same values, same order).
func assertIndexEquivalent(t *testing.T, got, want *Index) {
	t.Helper()
	measures := []measure.Measure{
		measure.Covariance, measure.DotProduct,
		measure.Correlation, measure.Cosine,
	}
	intervals := []interval.Interval{
		interval.AtLeast(0.1), interval.AtMost(-0.05),
		interval.Between(-0.5, 0.5), interval.New(interval.Open(0), interval.Open(1)),
	}
	for _, m := range measures {
		for _, iv := range intervals {
			gp, err1 := got.PairInterval(m, iv)
			wp, err2 := want.PairInterval(m, iv)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("PairInterval(%v, %v) error mismatch: %v vs %v", m, iv, err1, err2)
			}
			if len(gp) != len(wp) {
				t.Fatalf("PairInterval(%v, %v): %d pairs vs %d", m, iv, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("PairInterval(%v, %v)[%d] = %v, want %v", m, iv, i, gp[i], wp[i])
				}
			}
		}
		gtp, gtv, gScanned, err1 := got.PairTopK(m, 7, true)
		wtp, wtv, _, err2 := want.PairTopK(m, 7, true)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("PairTopK(%v) error mismatch: %v vs %v", m, err1, err2)
		}
		_ = gScanned
		if len(gtp) != len(wtp) {
			t.Fatalf("PairTopK(%v): %d vs %d results", m, len(gtp), len(wtp))
		}
		for i := range gtp {
			if gtp[i] != wtp[i] || gtv[i] != wtv[i] {
				t.Fatalf("PairTopK(%v)[%d] = %v/%v, want %v/%v", m, i, gtp[i], gtv[i], wtp[i], wtv[i])
			}
		}
	}
	for _, m := range []measure.Measure{measure.Mean, measure.Median} {
		gs, err1 := got.SeriesInterval(m, interval.AtLeast(-0.2))
		ws, err2 := want.SeriesInterval(m, interval.AtLeast(-0.2))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("SeriesInterval(%v) error mismatch: %v vs %v", m, err1, err2)
		}
		if len(gs) != len(ws) {
			t.Fatalf("SeriesInterval(%v): %d vs %d", m, len(gs), len(ws))
		}
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("SeriesInterval(%v)[%d] = %v, want %v", m, i, gs[i], ws[i])
			}
		}
		gid, gv, err1 := got.SeriesTopK(m, 5, false)
		wid, wv, err2 := want.SeriesTopK(m, 5, false)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("SeriesTopK(%v) error mismatch: %v vs %v", m, err1, err2)
		}
		for i := range gid {
			if gid[i] != wid[i] || gv[i] != wv[i] {
				t.Fatalf("SeriesTopK(%v)[%d] = %v/%v, want %v/%v", m, i, gid[i], gv[i], wid[i], wv[i])
			}
		}
	}
}

// staleSubset deterministically picks a fraction of the assignments as stale.
func staleSubset(rel *symex.Result, frac float64, seed int64) map[timeseries.Pair]bool {
	list := rel.AssignmentList()
	pairs := make([]timeseries.Pair, len(list))
	for i, a := range list {
		pairs[i] = a.Pair
	}
	slices.SortFunc(pairs, timeseries.ComparePairs)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	k := int(frac * float64(len(pairs)))
	out := make(map[timeseries.Pair]bool, k)
	for _, p := range pairs[:k] {
		out[p] = true
	}
	return out
}

func TestUpdateMatchesFullBuild(t *testing.T) {
	d1, d2, rel1 := slidingDataset(t, 11, 36, 240, 24)
	opts := Options{Parallelism: 2}
	idx1, err := Build(d1, rel1, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, frac := range []float64{0, 0.1, 0.3, 0.5, 0.75, 1} {
		stale := staleSubset(rel1, frac, 5)
		rel2, _, err := symex.Refit(d2, rel1, symex.RefitOptions{Stale: stale, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 8} {
			upd, us, err := idx1.Update(d2, rel2, stale, UpdateOptions{Parallelism: p})
			if err != nil {
				t.Fatalf("frac=%v P=%d: %v", frac, p, err)
			}
			if us.StoresShared+us.StoresCloned+us.StoresRebuilt != upd.NumPivots() {
				t.Fatalf("store accounting %d+%d+%d != %d pivots",
					us.StoresShared, us.StoresCloned, us.StoresRebuilt, upd.NumPivots())
			}
			if frac == 0 && us.StoresCloned != 0 {
				t.Fatalf("frac=0 cloned %d stores", us.StoresCloned)
			}
			if frac > 0 && us.EntriesInserted == 0 {
				t.Fatalf("frac=%v inserted no entries", frac)
			}
			full, err := Build(d2, rel2, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIndexEquivalent(t, upd, full)
		}
	}
}

// TestUpdateIgnoresFalseStaleEntries: the stale set is a map[Pair]bool, and a
// pair mapped to false is not stale — neither Refit nor Update touches it, and
// neither it nor a pair the layout has no slot for counts towards the stale
// fraction.
func TestUpdateIgnoresFalseStaleEntries(t *testing.T) {
	d1, d2, rel1 := slidingDataset(t, 11, 36, 240, 24)
	idx1, err := Build(d1, rel1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := staleSubset(rel1, 0.2, 5)
	for p := range stale {
		stale[p] = false
	}
	stale[timeseries.Pair{U: 1000, V: 1001}] = true // no such series
	rel2, rs, err := symex.Refit(d2, rel1, symex.RefitOptions{Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Refit != 0 || rs.Reused != rel1.Len() {
		t.Fatalf("refit stats %+v, want every relationship reused", rs)
	}
	upd, us, err := idx1.Update(d2, rel2, stale, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if us.StoresCloned != 0 || us.EntriesDeleted != 0 || us.EntriesInserted != 0 || us.StoresShared != upd.NumPivots() || us.StaleFraction != 0 {
		t.Fatalf("update stats %+v, want every store shared and nothing stale", us)
	}
	// One pair marked for real among them: that pair is the fraction.
	var marked timeseries.Pair
	for p := range stale {
		if _, ok := rel1.Relationship(p); ok {
			marked = p
			break
		}
	}
	stale[marked] = true
	if rel2, _, err = symex.Refit(d2, rel1, symex.RefitOptions{Stale: stale}); err != nil {
		t.Fatal(err)
	}
	if _, us, err = idx1.Update(d2, rel2, stale, UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	if want := 1 / float64(rel2.Len()); us.StaleFraction != want || us.StoresCloned != 1 || us.EntriesDeleted != 1 || us.EntriesInserted != 1 {
		t.Fatalf("update stats %+v, want one stale pair of %d (fraction %v)", us, rel2.Len(), want)
	}
}

// TestUpdateNilStaleSetBuildsCold: a nil stale set means every relationship
// was refit; nothing of the previous stores is shared.
func TestUpdateNilStaleSetBuildsCold(t *testing.T) {
	d1, d2, rel1 := slidingDataset(t, 17, 24, 200, 20)
	idx1, err := Build(d1, rel1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel2, _, err := symex.Refit(d2, rel1, symex.RefitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	upd, us, err := idx1.Update(d2, rel2, nil, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if us.StaleFraction != 1 || us.StoresShared+us.StoresCloned+us.StoresRebuilt != 0 {
		t.Fatalf("nil stale set: update stats %+v, want a cold build at stale fraction 1", us)
	}
	full, err := Build(d2, rel2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEquivalent(t, upd, full)
}

func TestUpdateChainedEpochs(t *testing.T) {
	// Three consecutive slides, each incrementally updated from the last,
	// must still match a from-scratch build of the final window.
	const n, m, slide, epochs = 30, 220, 16, 3
	rng := rand.New(rand.NewSource(23))
	const groups = 3
	long := m + slide*epochs
	series := make([][]float64, n)
	for s := range series {
		g := s % groups
		scale := 0.5 + rng.Float64()*2
		offset := rng.NormFloat64() * 0.5
		col := make([]float64, long)
		for i := range col {
			base := math.Sin(float64(i)*0.03*float64(g+1)) + 0.4*math.Cos(float64(i)*0.011*float64(g+2))
			col[i] = scale*base + offset + rng.NormFloat64()*0.02
		}
		series[s] = col
	}
	window := func(e int) *timeseries.DataMatrix {
		w := make([][]float64, n)
		for s := range w {
			w[s] = series[s][e*slide : e*slide+m]
		}
		d, err := timeseries.NewDataMatrix(w)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d0 := window(0)
	rel, err := symex.Compute(d0, symex.Options{
		Cluster:            cluster.Config{K: groups, MaxIterations: 10, MinChanges: 0, Seed: 1},
		CachePseudoInverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d0, rel, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= epochs; e++ {
		d := window(e)
		stale := staleSubset(rel, 0.15, int64(e))
		rel2, _, err := symex.Refit(d, rel, symex.RefitOptions{Stale: stale, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		idx2, us, err := idx.Update(d, rel2, stale, UpdateOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if us.StoresCloned == 0 {
			t.Fatalf("epoch %d: update stats %+v, want re-derived stores", e, us)
		}
		// The previous epoch's index must remain intact and queryable after
		// the update (it shares stores with the new one).
		prevFull, err := Build(window(e-1), rel, Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEquivalent(t, idx, prevFull)
		rel, idx = rel2, idx2

		full, err := Build(d, rel2, Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEquivalent(t, idx, full)
	}
}

// storesOf copies every sequence store of idx, node by node.
func storesOf(idx *Index) [][]sequenceNode {
	out := make([][]sequenceNode, len(idx.pivots))
	for i := range idx.pivots {
		out[i] = append([]sequenceNode(nil), idx.pivots[i].canon...)
	}
	return out
}

// A cold Update carves every sequence store out of one slab, and a cold
// Update recycling that index reuses the slab while no later index shares a
// store of it.  Once an Update shares its stores (pinning it), a cold Update
// recycling it takes a new slab, and the sharing index keeps its stores and
// its answers.
func TestColdUpdateStoreSlabRespectsPins(t *testing.T) {
	d1, d2, rel1 := slidingDataset(t, 23, 24, 120, 12)
	rel2, _, err := symex.Refit(d2, rel1, symex.RefitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	build := func(d *timeseries.DataMatrix, rel *symex.Result) *Index {
		t.Helper()
		idx, err := Build(d, rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	update := func(prev *Index, d *timeseries.DataMatrix, rel *symex.Result, stale map[timeseries.Pair]bool, donor *Index) *Index {
		t.Helper()
		idx, _, err := prev.Update(d, rel, stale, UpdateOptions{Recycle: donor})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	for _, shared := range []bool{false, true} {
		owner := update(build(d1, rel1), d2, rel2, nil, nil)
		if owner.slab.stores == nil || &owner.pivots[0].canon[0] != &owner.slab.stores[0] {
			t.Fatal("a cold update did not carve its stores out of a slab")
		}
		slab := &owner.slab.stores[0]
		var sharer *Index
		var held [][]sequenceNode
		if shared {
			sharer = update(owner, d2, rel2, staleSubset(rel2, 0.1, 5), nil)
			held = storesOf(sharer)
		}
		// A cold update over the other window into owner.
		next := update(build(d2, rel2), d1, rel1, nil, owner)
		assertIndexEquivalent(t, next, build(d1, rel1))
		if reused := &next.slab.stores[0] == slab; reused == shared {
			t.Fatalf("shared=%v: the cold update reused the recycled store slab: %v", shared, reused)
		}
		if !shared {
			continue
		}
		for i, want := range held {
			if got := sharer.pivots[i].canon; !slices.Equal(got, want) {
				t.Fatalf("node %d: a store the later index shares changed under it", i)
			}
		}
		assertIndexEquivalent(t, sharer, build(d2, rel2))
	}
}
