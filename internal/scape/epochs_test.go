package scape

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/stats"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// An index maintained by Update must be the index Build makes of the same
// window and relationships — not just answer alike: the same nodes, α, keys
// and container orders, bounds and location columns, bit for bit.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// eagerBounds is the oracle for the on-demand parameter bounds: the loop the
// build used to run per pivot and D-measure, over the sequence store itself.
func eagerBounds(idx *Index, node *pivotNode, sp *measure.Spec) [2]float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, sn := range node.canon {
		u := sp.Param(idx.moments.Stat(sn.pair.U), idx.moments.Stat(sn.pair.V))
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	return [2]float64{lo, hi}
}

// requireSameIndex compares two indexes field by field.  Reading the bounds
// reduces them on both sides, so callers that watch the on-demand discipline
// do that first.
func requireSameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if len(got.pivots) != len(want.pivots) {
		t.Fatalf("%s: %d pivot nodes, want %d", label, len(got.pivots), len(want.pivots))
	}
	if !slices.Equal(got.tMeasures, want.tMeasures) || !slices.Equal(got.dMeasures, want.dMeasures) || !slices.Equal(got.lMeasures, want.lMeasures) {
		t.Fatalf("%s: measure lists differ", label)
	}
	for v := range want.moments.Sum {
		g, w := got.moments, want.moments
		if !sameBits(g.Variance[v], w.Variance[v]) || !sameBits(g.SqNorm[v], w.SqNorm[v]) || !sameBits(g.Sum[v], w.Sum[v]) {
			t.Fatalf("%s: per-series statistics of series %d differ", label, v)
		}
	}
	for i := range want.pivots {
		g, w := &got.pivots[i], &want.pivots[i]
		if g.pivot != w.pivot {
			t.Fatalf("%s: node %d is pivot %v, want %v", label, i, g.pivot, w.pivot)
		}
		if len(g.canon) != len(w.canon) {
			t.Fatalf("%s %v: a store of %d sequence nodes, want %d", label, g.pivot, len(g.canon), len(w.canon))
		}
		for r := range w.canon {
			if g.canon[r].pair != w.canon[r].pair {
				t.Fatalf("%s %v: canonical rank %d holds %v, want %v", label, g.pivot, r, g.canon[r].pair, w.canon[r].pair)
			}
			for c := range w.canon[r].beta {
				if !sameBits(g.canon[r].beta[c], w.canon[r].beta[c]) {
					t.Fatalf("%s %v: β of %v differs", label, g.pivot, g.canon[r].pair)
				}
			}
		}
		for s, m := range want.tMeasures {
			gm, wm := &g.measures[s], &w.measures[s]
			for c := range wm.alpha {
				if !sameBits(gm.alpha[c], wm.alpha[c]) {
					t.Fatalf("%s %v %v: α[%d] = %x, want %x", label, g.pivot, m, c, math.Float64bits(gm.alpha[c]), math.Float64bits(wm.alpha[c]))
				}
			}
			if !sameBits(gm.alphaNorm, wm.alphaNorm) {
				t.Fatalf("%s %v %v: ‖α‖ differs", label, g.pivot, m)
			}
			if !slices.Equal(gm.xi.ranks, wm.xi.ranks) {
				t.Fatalf("%s %v %v: container order %v, want %v", label, g.pivot, m, gm.xi.ranks, wm.xi.ranks)
			}
			for e := range wm.xi.keys {
				if !sameBits(gm.xi.keys[e], wm.xi.keys[e]) {
					t.Fatalf("%s %v %v: ξ[%d] = %v, want %v", label, g.pivot, m, e, gm.xi.keys[e], wm.xi.keys[e])
				}
			}
		}
	}
	for _, m := range want.dMeasures {
		sp := measure.Lookup(m)
		gb, wb := got.paramBoundsOf(sp), want.paramBoundsOf(sp)
		if len(gb) != len(wb) {
			t.Fatalf("%s %v: bounds for %d nodes, want %d", label, m, len(gb), len(wb))
		}
		for i := range wb {
			oracle := eagerBounds(want, &want.pivots[i], sp)
			for c := range oracle {
				if !sameBits(gb[i][c], wb[i][c]) || !sameBits(wb[i][c], oracle[c]) {
					t.Fatalf("%s %v %v: bounds %v, Build %v, eager loop %v", label, m, want.pivots[i].pivot, gb[i], wb[i], oracle)
				}
			}
		}
	}
	requireSameLocation(t, label, got, want)
	gs, ws := got.stats, want.stats
	gs.ScratchGets, gs.ScratchHits, ws.ScratchGets, ws.ScratchHits = 0, 0, 0, 0
	if gs != ws {
		t.Fatalf("%s: stats %+v, want %+v", label, gs, ws)
	}
}

// requireAlphaFromPivotTerms checks that every node's α is the first row of
// its measure's moment matrix over the pivot terms W_A propagates through
// (symex.Result.PivotTerms, reduced here at parallelism 1), bit for bit.
func requireAlphaFromPivotTerms(t *testing.T, label string, idx *Index, d *timeseries.DataMatrix, rel *symex.Result) {
	t.Helper()
	terms, err := rel.PivotTerms(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, pi := range livePivots(rel) {
		node := &idx.pivots[i]
		for s, m := range idx.tMeasures {
			want := measure.Lookup(m).Moment(terms[pi]).Alpha()
			if got := node.measures[s].alpha; !sameBits(got[0], want[0]) || !sameBits(got[1], want[1]) || !sameBits(got[2], want[2]) {
				t.Fatalf("%s %v %v: α = %v, the pivot terms give %v", label, node.pivot, m, got, want)
			}
		}
	}
}

// requireSameLocation compares the location columns of two indexes entry by
// entry.
func requireSameLocation(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if !slices.Equal(got.lMeasures, want.lMeasures) {
		t.Fatalf("%s: L-measures %v, want %v", label, got.lMeasures, want.lMeasures)
	}
	for s, m := range want.lMeasures {
		g, w := got.location[s], want.location[s]
		if !slices.Equal(g.ids, w.ids) || len(g.keys) != len(w.keys) {
			t.Fatalf("%s %v: location column holds series %v, want %v", label, m, g.ids, w.ids)
		}
		for i := range w.keys {
			if !sameBits(g.keys[i], w.keys[i]) {
				t.Fatalf("%s %v: location entry %d = %v, want %v", label, m, i, g.keys[i], w.keys[i])
			}
		}
	}
}

// relsOf returns a copy of rel's relationship slots.
func relsOf(rel *symex.Result) []*symex.Relationship {
	rels := make([]*symex.Relationship, len(rel.Layout().Assignments()))
	for slot := range rels {
		rels[slot] = rel.At(slot)
	}
	return rels
}

// withPivotPruned returns rel with every relationship of pivot pi dropped,
// and the pairs it dropped.
func withPivotPruned(rel *symex.Result, pi int) (*symex.Result, []timeseries.Pair) {
	layout := rel.Layout()
	rels := relsOf(rel)
	var dropped []timeseries.Pair
	for _, slot := range layout.PivotSlots(pi) {
		if rels[slot] != nil {
			dropped = append(dropped, rels[slot].Pair)
			rels[slot] = nil
		}
	}
	return symex.NewResult(layout, rel.Clustering, rels), dropped
}

// lostToMaxLSFD re-fits one pair of rel under a bound no fit meets: Refit
// prunes it.
func lostToMaxLSFD(t *testing.T, d *timeseries.DataMatrix, rel *symex.Result, pair timeseries.Pair) *symex.Result {
	t.Helper()
	next, rs, err := symex.Refit(d, rel, symex.RefitOptions{Stale: map[timeseries.Pair]bool{pair: true}, MaxLSFD: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := next.Relationship(pair); ok || rs.Pruned != 1 {
		t.Fatalf("pair %v survived MaxLSFD = 1e-300 (refit stats %+v)", pair, rs)
	}
	return next
}

// TestUpdateEqualsBuildOverEpochs chains fifty epochs of Update at slides of
// one, eight and a whole window and holds every epoch's index against a Build
// of the same inputs.  Most epochs have a few stale pairs; every tenth marks
// half, three quarters or all of them; one pivot periodically loses every
// relationship and gets them back; another loses one pair to MaxLSFD and, an
// epoch later, gets it back while losing a second.  Next to the chain runs one
// of location-only indexes, each built on the previous one and held against a
// cold one, its clustering swapped for a different one once on the way.
func TestUpdateEqualsBuildOverEpochs(t *testing.T) {
	const n, m, epochs, groups = 18, 48, 50, 3
	for _, slide := range []int{1, 8, m} {
		for _, p := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("slide=%d/P=%d", slide, p), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(97*slide + p)))
				long := m + slide*epochs
				series := make([][]float64, n)
				for s := range series {
					g := s % groups
					scale, offset := 0.5+rng.Float64()*2, rng.NormFloat64()*0.5
					series[s] = make([]float64, long)
					for i := range series[s] {
						base := math.Sin(float64(i)*0.03*float64(g+1)) + 0.4*math.Cos(float64(i)*0.011*float64(g+2))
						series[s][i] = scale*base + offset + rng.NormFloat64()*0.05
					}
				}
				first := make([][]float64, n)
				for s := range first {
					first[s] = series[s][:m]
				}
				d, err := timeseries.NewDataMatrix(first)
				if err != nil {
					t.Fatal(err)
				}
				rel, err := symex.Compute(d, symex.Options{
					Cluster:            cluster.Config{K: groups, MaxIterations: 10, MinChanges: 0, Seed: 1},
					CachePseudoInverse: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Parallelism: p}
				idx, err := Build(d, rel, opts)
				if err != nil {
					t.Fatal(err)
				}
				locClustering := rel.Clustering
				// The pivot that comes and goes is the one with the most pairs;
				// the runner-up trades one pair for another.
				layout := rel.Layout()
				victim, trader := 0, -1
				for pi := range layout.Pivots() {
					if rel.PivotLen(pi) > rel.PivotLen(victim) {
						victim = pi
					}
				}
				for pi := range layout.Pivots() {
					if pi != victim && (trader < 0 || rel.PivotLen(pi) > rel.PivotLen(trader)) {
						trader = pi
					}
				}
				if rel.PivotLen(trader) < 2 {
					t.Fatalf("the second largest pivot has %d pairs: nothing to trade", rel.PivotLen(trader))
				}
				assignments := layout.Assignments()
				lost := assignments[layout.PivotSlots(trader)[0]].Pair
				traded := assignments[layout.PivotSlots(trader)[1]].Pair
				var shared, cloned, rebuilt, repaired int
				for e := 1; e <= epochs; e++ {
					batch := make([][]float64, n)
					for s := range batch {
						batch[s] = series[s][m+(e-1)*slide : m+e*slide]
					}
					if d, err = d.SlideCopy(batch); err != nil {
						t.Fatal(err)
					}
					stale := map[timeseries.Pair]bool{}
					for range 3 {
						stale[assignments[rng.Intn(len(assignments))].Pair] = true
					}
					if e%10 == 0 {
						frac := []float64{0.5, 0.75, 1}[(e/10-1)%3]
						for _, slot := range rng.Perm(len(assignments))[:int(frac*float64(len(assignments)))] {
							stale[assignments[slot].Pair] = true
						}
					}
					prune := e%7 == 3
					if e%7 == 5 { // revive: Refit re-fits a stale pair it finds pruned
						for _, slot := range layout.PivotSlots(victim) {
							stale[assignments[slot].Pair] = true
						}
					}
					switch e {
					case 12:
						stale[lost] = true
					case 13:
						stale[lost], stale[traded] = true, true
					case 14:
						stale[traded] = true
					}
					next, _, err := symex.Refit(d, rel, symex.RefitOptions{Stale: stale, Parallelism: p})
					if err != nil {
						t.Fatal(err)
					}
					if prune {
						var dropped []timeseries.Pair
						next, dropped = withPivotPruned(next, victim)
						for _, pair := range dropped {
							stale[pair] = true
						}
					}
					switch e {
					case 12:
						next = lostToMaxLSFD(t, d, next, lost)
					case 13: // the refit above revived lost; the same pivot now loses traded
						next = lostToMaxLSFD(t, d, next, traded)
						if _, ok := next.Relationship(lost); !ok || next.PivotLen(trader) != rel.PivotLen(trader) {
							t.Fatalf("epoch %d: pivot %d did not trade %v for %v", e, trader, traded, lost)
						}
					}
					// What the counters promise, from the two relationship sets: a
					// stale pair left a re-derived store if the previous set held
					// it and entered one if the new set does.
					wantDeleted, wantInserted := 0, 0
					for pair := range stale {
						slot, _ := layout.Slot(pair)
						if pi := layout.PivotOf(slot); rel.PivotLen(pi) == 0 || next.PivotLen(pi) == 0 {
							continue // no node to compare with, or none to build
						}
						if rel.At(slot) != nil {
							wantDeleted++
						}
						if next.At(slot) != nil {
							wantInserted++
						}
					}
					upd, us, err := idx.Update(d, next, stale, UpdateOptions{Parallelism: p})
					if err != nil {
						t.Fatalf("epoch %d: %v", e, err)
					}
					if us.EntriesDeleted != wantDeleted || us.EntriesInserted != wantInserted ||
						us.StaleFraction != float64(len(stale))/float64(next.Len()) {
						t.Fatalf("epoch %d: update stats %+v, want %d deleted, %d inserted, %d of %d stale",
							e, us, wantDeleted, wantInserted, len(stale), next.Len())
					}
					full, err := Build(d, next, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameIndex(t, fmt.Sprintf("epoch %d", e), upd, full)
					requireAlphaFromPivotTerms(t, fmt.Sprintf("epoch %d", e), upd, d, next)
					if upd.moments != d.Moments() || full.moments != d.Moments() {
						t.Fatalf("epoch %d: an index reduced the window's columns itself", e)
					}
					shared, cloned, rebuilt = shared+us.StoresShared, cloned+us.StoresCloned, rebuilt+us.StoresRebuilt
					for i := range upd.pivots {
						if at, ok := idx.findPivot(upd.pivots[i].pivot, i); ok && &idx.pivots[at].canon[0] == &upd.pivots[i].canon[0] {
							repaired++
						}
					}

					// The location-only index: center locations live on the
					// clustering object, so a new one (here one whose centers
					// moved) brings its own.
					if e == epochs/2 {
						moved := &cluster.Result{Centers: make([][]float64, len(next.Clustering.Centers)), Assignment: next.Clustering.Assignment}
						for l, c := range next.Clustering.Centers {
							moved.Centers[l] = make([]float64, len(c))
							for i, v := range c {
								moved.Centers[l][i] = 2*v + float64(l+1)
							}
						}
						locClustering = moved
					}
					locRel := next
					if locClustering != next.Clustering {
						locRel = symex.NewResult(layout, locClustering, relsOf(next))
					}
					loc, err := BuildLocationOnly(d, locRel, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := full
					if locRel != next {
						if want, err = Build(d, locRel, opts); err != nil {
							t.Fatal(err)
						}
					}
					requireSameLocation(t, fmt.Sprintf("epoch %d, location-only against Build", e), loc, want)
					idx, rel = upd, next
				}
				if shared == 0 || cloned == 0 || rebuilt < epochs/7 || repaired != shared {
					t.Fatalf("%d shared (%d on the previous epoch's slice), %d re-derived, %d rebuilt stores: the epochs did not cover every route",
						shared, repaired, cloned, rebuilt)
				}
			})
		}
	}
}

// TestRepairXiMatchesSortXi feeds the re-sort hostile previous orders: it
// must leave exactly the array a cold sort leaves, whatever it started from.
func TestRepairXiMatchesSortXi(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	negZero := math.Copysign(0, -1)
	fills := map[string]func(rank, k int) float64{
		"ascending":  func(rank, k int) float64 { return float64(rank) },
		"descending": func(rank, k int) float64 { return float64(k - rank) },
		"all equal":  func(rank, k int) float64 { return 0 }, // what ‖α‖ = 0 projects
		"zeros":      func(rank, k int) float64 { return []float64{0, negZero}[rank%2] },
		"NaN":        func(rank, k int) float64 { return []float64{math.NaN(), 1, math.Inf(-1), math.NaN(), 0}[rank%5] },
		"all NaN":    func(rank, k int) float64 { return math.NaN() },
		"random":     func(rank, k int) float64 { return rng.NormFloat64() },
		"few values": func(rank, k int) float64 { return float64(rng.Intn(3)) },
	}
	orders := map[string]func(ranks []int32){
		"canonical": func(ranks []int32) {},
		"reversed":  func(ranks []int32) { slices.Reverse(ranks) },
		"shuffled": func(ranks []int32) {
			rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
		},
		"one moved": func(ranks []int32) {
			if len(ranks) > 1 {
				ranks[0], ranks[len(ranks)-1] = ranks[len(ranks)-1], ranks[0]
			}
		},
	}
	for _, k := range []int{0, 1, 2, 33, 700} {
		for fill, xiOf := range fills {
			xis := make([]float64, k)
			for rank := range xis {
				xis[rank] = xiOf(rank, k)
			}
			for order, permute := range orders {
				ranks := make([]int32, k)
				for i := range ranks {
					ranks[i] = int32(i)
				}
				permute(ranks)
				got, want := make([]xiEntry, k), make([]xiEntry, k)
				for i, rank := range ranks {
					got[i] = xiEntry{xi: xis[rank], rank: rank}
				}
				copy(want, got)
				repairXi(got)
				sortXi(want)
				for i := range want {
					if !sameBits(got[i].xi, want[i].xi) || got[i].rank != want[i].rank {
						t.Fatalf("k=%d, %s ξ from %s order: entry %d is %+v, a cold sort puts %+v there", k, fill, order, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestUpdateRepairsHostilePreviousOrder: the previous epoch's container order
// is only a starting point.  Scrambled — reversed, on pivots with ‖α‖ = 0,
// equal and infinite ξ, and NaN ξ — it still leads to Build's index, whether
// every store is shared or half, three quarters or all of the pairs are stale.
func TestUpdateRepairsHostilePreviousOrder(t *testing.T) {
	for _, nan := range []bool{false, true} {
		d, next, rel := hostileIndexInputs(t, nan)
		refit, _, err := symex.Refit(next, rel, symex.RefitOptions{Stale: map[timeseries.Pair]bool{}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(next, refit, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0, 0.5, 0.75, 1} {
			stale := staleSubset(rel, frac, 7)
			for _, p := range []int{1, 2, 8} {
				prev, err := Build(d, rel, Options{Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				for i := range prev.pivots {
					for s := range prev.pivots[i].measures {
						slices.Reverse(prev.pivots[i].measures[s].xi.ranks)
					}
				}
				upd, us, err := prev.Update(next, refit, stale, UpdateOptions{Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				if (frac == 0 && us.StoresShared != len(upd.pivots)) || (frac == 1 && us.StoresShared != 0) || (frac > 0 && us.StoresCloned == 0) {
					t.Fatalf("stale fraction %v: update stats %+v over %d pivots", frac, us, len(upd.pivots))
				}
				requireSameIndex(t, fmt.Sprintf("P=%d, stale fraction %v, reversed previous order", p, frac), upd, want)
			}
		}
	}
}

// boundedMeasures lists the D-measures whose bounds an index has reduced.
func boundedMeasures(idx *Index) []stats.Measure {
	var out []stats.Measure
	for s, m := range idx.dMeasures {
		if idx.bounds[s].perPivot != nil {
			out = append(out, m)
		}
	}
	return out
}

// TestParamBoundsReducedOnDemand: an epoch's pruning bounds exist only for
// the D-measures a query of that epoch pruned by, and belong to that epoch.
func TestParamBoundsReducedOnDemand(t *testing.T) {
	d1, d2, rel1 := slidingDataset(t, 11, 36, 240, 24)
	idx, err := Build(d1, rel1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(label string, idx *Index, want ...stats.Measure) {
		t.Helper()
		if got := boundedMeasures(idx); !slices.Equal(got, want) {
			t.Fatalf("%s: bounds reduced for %v, want %v", label, got, want)
		}
	}
	expect("fresh index", idx)

	// Queries that cannot use bounds reduce none: T- and L-measures, a
	// predicate outside the measure's range, one that evaluates every entry.
	for _, q := range []PairQuery{
		{Measure: stats.Covariance, Interval: interval.AtLeast(0.1)},
		{Measure: stats.DotProduct, Interval: interval.Between(-1, 1)},
		{Measure: stats.Correlation, Interval: interval.GreaterThan(2)},
		{Measure: stats.Correlation, Interval: interval.GreaterThan(-2)},
	} {
		if _, err := idx.PairInterval(q.Measure, q.Interval); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.EstimateSelectivity(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := idx.PairTopK(stats.Covariance, 5, true); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.SeriesInterval(stats.Mean, interval.AtLeast(0)); err != nil {
		t.Fatal(err)
	}
	expect("after queries that do not prune", idx)

	// Each door that prunes reduces its own measure, once.
	if _, err := idx.PairInterval(stats.Correlation, interval.AtLeast(0.5)); err != nil {
		t.Fatal(err)
	}
	expect("after a correlation scan", idx, stats.Correlation)
	first := &idx.paramBoundsOf(measure.Lookup(stats.Correlation))[0]
	if _, err := idx.PairBatch([]PairQuery{{Measure: stats.Correlation, Interval: interval.AtMost(0)}}); err != nil {
		t.Fatal(err)
	}
	if again := &idx.paramBoundsOf(measure.Lookup(stats.Correlation))[0]; again != first {
		t.Fatal("the correlation bounds were reduced twice at one epoch")
	}
	if _, _, _, err := idx.PairTopK(stats.Cosine, 5, true); err != nil {
		t.Fatal(err)
	}
	expect("after a cosine top-k", idx, stats.Correlation, stats.Cosine)
	if _, err := idx.EstimateSelectivity(PairQuery{Measure: stats.EuclideanDistance, Interval: interval.AtMost(3)}); err != nil {
		t.Fatal(err)
	}
	expect("after a Euclidean estimate", idx, stats.Correlation, stats.Cosine, stats.EuclideanDistance)

	// The next epoch starts without bounds and reduces its own; the pinned
	// previous index keeps reading the ones of its window.
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
	if _, err := upd.PairInterval(stats.Cosine, interval.AtLeast(0.5)); err != nil {
		t.Fatal(err)
	}
	expect("updated index after a cosine scan", upd, stats.Cosine)
	expect("previous index", idx, stats.Correlation, stats.Cosine, stats.EuclideanDistance)
	sp := measure.Lookup(stats.Cosine)
	moved := false
	for i, b := range idx.paramBoundsOf(sp) {
		if oracle := eagerBounds(idx, &idx.pivots[i], sp); b != oracle {
			t.Fatalf("previous index: cosine bounds of %v are %v, its own window gives %v", idx.pivots[i].pivot, b, oracle)
		}
		if at, ok := upd.findPivot(idx.pivots[i].pivot, i); ok && upd.paramBoundsOf(sp)[at] != b {
			moved = true
		}
	}
	if !moved {
		t.Fatal("the slid window left every cosine bound where it was: the test cannot tell the epochs apart")
	}
}

// TestNoBoundsWithoutPruning: an index that does not prune — by option, or
// because it indexes no D-measure — never reduces bounds and behaves as before.
func TestNoBoundsWithoutPruning(t *testing.T) {
	d, _, rel := slidingDataset(t, 11, 36, 240, 24)
	pruning, err := Build(d, rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := Build(d, rel, Options{DisableDerivedPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range SeparableDerivedMeasures() {
		for _, iv := range []interval.Interval{interval.AtLeast(0.4), interval.Between(0.1, 0.9), interval.LessThan(0.2)} {
			got, err := ablated.PairInterval(m, iv)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pruning.PairInterval(m, iv)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v %v: %d pairs without pruning, %d with", m, iv, len(got), len(want))
			}
			if _, err := ablated.EstimateSelectivity(PairQuery{Measure: m, Interval: iv}); err != nil {
				t.Fatal(err)
			}
		}
		gp, gv, _, err := ablated.PairTopK(m, 9, true)
		if err != nil {
			t.Fatal(err)
		}
		wp, wv, _, err := pruning.PairTopK(m, 9, true)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gp, wp) || !slices.Equal(gv, wv) {
			t.Fatalf("%v: top-k differs without pruning", m)
		}
	}
	if got := boundedMeasures(ablated); got != nil {
		t.Fatalf("an index with pruning disabled reduced bounds for %v", got)
	}
	if got := boundedMeasures(pruning); len(got) != len(pruning.dMeasures) {
		t.Fatalf("the pruning index reduced bounds for %v of %v", got, pruning.dMeasures)
	}

	plain, err := Build(d, rel, Options{DerivedMeasures: []stats.Measure{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.bounds) != 0 || plain.Stats().IndexedDMeasures != 0 || plain.Stats().IndexedTMeasures != 2 {
		t.Fatalf("index without D-measures: %d bound slots, stats %+v", len(plain.bounds), plain.Stats())
	}
	if _, err := plain.PairInterval(stats.Correlation, interval.AtLeast(0.5)); err == nil {
		t.Fatal("an index without D-measures answered a correlation query")
	}
	if _, _, _, err := plain.PairTopK(stats.Cosine, 3, true); err == nil {
		t.Fatal("an index without D-measures answered a cosine top-k")
	}
	got, err := plain.PairInterval(stats.Covariance, interval.AtLeast(0.1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pruning.PairInterval(stats.Covariance, interval.AtLeast(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("covariance scan: %d pairs without D-measures, %d with", len(got), len(want))
	}
}
