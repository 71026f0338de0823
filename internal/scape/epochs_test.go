package scape

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/measure"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// An index maintained by Update must be the index Build makes of the same
// window and relationships — not just answer alike: the same nodes, α, keys
// and container orders and value columns, bit for bit.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameIndex compares two indexes field by field.  Reading the value
// columns fills them on both sides, so callers that watch the on-demand
// discipline do that first.
func requireSameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if len(got.pivots) != len(want.pivots) {
		t.Fatalf("%s: %d pivot nodes, want %d", label, len(got.pivots), len(want.pivots))
	}
	if !slices.Equal(got.tMeasures, want.tMeasures) || !slices.Equal(got.dMeasures, want.dMeasures) {
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
		gc, wc := got.columnOf(sp), want.columnOf(sp)
		if !slices.EqualFunc(gc.values, wc.values, sameBits) || !slices.Equal(gc.extremes, wc.extremes) {
			t.Fatalf("%s %v: value columns differ", label, m)
		}
	}
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
	for pi := range idx.pivots {
		node := &idx.pivots[pi]
		for s, m := range idx.tMeasures {
			want := measure.Lookup(m).Moment(terms[pi]).Alpha()
			if got := node.measures[s].alpha; !sameBits(got[0], want[0]) || !sameBits(got[1], want[1]) || !sameBits(got[2], want[2]) {
				t.Fatalf("%s %v %v: α = %v, the pivot terms give %v", label, node.pivot, m, got, want)
			}
		}
	}
}

// TestUpdateEqualsBuildOverEpochs chains fifty epochs of Update at slides of
// one, eight and a whole window and holds every epoch's index against a Build
// of the same inputs.  Most epochs have a few stale pairs; every tenth marks
// half, three quarters or all of them, and every tenth from the fifth on has a
// nil stale set — a full refit, which builds the index cold with every
// container repaired from the previous epoch's order.  Before the
// twenty-fifth the previous index's containers are reversed, so that the
// longer ones exhaust repairXi's budget and hand over to sortXi.
func TestUpdateEqualsBuildOverEpochs(t *testing.T) {
	const n, m, epochs, groups = 36, 48, 50, 3
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
				assignments := rel.Layout().Assignments()
				var shared, cloned, repaired int
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
					fullRefit := e%10 == 5
					if fullRefit {
						stale = nil
					}
					if e == 25 {
						longest := 0
						for i := range idx.pivots {
							for s := range idx.pivots[i].measures {
								ranks := idx.pivots[i].measures[s].xi.ranks
								slices.Reverse(ranks)
								longest = max(longest, len(ranks))
							}
						}
						// A reversed container of k entries holds k(k−1)/2
						// inversions, past the budget of 4k from k = 10 on.
						if longest < 10 {
							t.Fatalf("epoch %d: the longest container holds %d entries, too few to exhaust repairXi's budget reversed", e, longest)
						}
					}
					if e%10 == 0 {
						frac := []float64{0.5, 0.75, 1}[(e/10-1)%3]
						for _, slot := range rng.Perm(len(assignments))[:int(frac*float64(len(assignments)))] {
							stale[assignments[slot].Pair] = true
						}
					}
					next, _, err := symex.Refit(d, rel, symex.RefitOptions{Stale: stale, Parallelism: p})
					if err != nil {
						t.Fatal(err)
					}
					// Every stale pair leaves its pivot's re-derived store and
					// enters it again; a full refit shares and re-derives none.
					upd, us, err := idx.Update(d, next, stale, UpdateOptions{Parallelism: p})
					if err != nil {
						t.Fatalf("epoch %d: %v", e, err)
					}
					if fullRefit && (us.StaleFraction != 1 || us.StoresShared+us.StoresCloned+us.StoresRebuilt+us.EntriesDeleted+us.EntriesInserted != 0) {
						t.Fatalf("epoch %d: full-refit update stats %+v, want stale fraction 1 and no store counts", e, us)
					}
					if !fullRefit && (us.EntriesDeleted != len(stale) || us.EntriesInserted != len(stale) || us.StoresRebuilt != 0 ||
						us.StaleFraction != float64(len(stale))/float64(next.Len())) {
						t.Fatalf("epoch %d: update stats %+v, want %d deleted and inserted of %d, no store rebuilt",
							e, us, len(stale), next.Len())
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
					shared, cloned = shared+us.StoresShared, cloned+us.StoresCloned
					for i := range upd.pivots {
						if at, ok := idx.findPivot(upd.pivots[i].pivot, i); ok && &idx.pivots[at].canon[0] == &upd.pivots[i].canon[0] {
							repaired++
						}
					}
					idx, rel = upd, next
				}
				if shared == 0 || cloned == 0 || repaired != shared {
					t.Fatalf("%d shared (%d on the previous epoch's slice), %d re-derived stores: the epochs did not cover every route",
						shared, repaired, cloned)
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
