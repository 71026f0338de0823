// Top-k (MEK) queries over the SCAPE index: the k pairs with the most extreme
// measure value, executed as a best-first traversal of the pivot nodes.
//
// Top-k is "adaptively discover the interval [v_k, best]": the per-node
// derived bounds that prune interval scans also order the pivot nodes by the
// best value they could possibly contain.  Nodes are visited best-first; each
// visited node is scanned only inside the running interval [v_k, ·] (v_k =
// the k-th best value found so far, tightening as the result heap fills), and
// the traversal stops as soon as the next node's optimistic bound cannot beat
// v_k — nodes beyond that point are never examined at all.
package scape

import (
	"fmt"
	"math"
	"slices"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// TopHeap keeps the k best (value, pair) entries offered to it under the
// deterministic total order shared by every top-k execution path: by value
// (descending for largest, ascending for smallest), ties broken by ascending
// canonical pair identity.  The worst retained entry sits at the heap root,
// so a full heap replaces it in O(log k) when a better entry arrives.
type TopHeap struct {
	k       int
	largest bool
	entries []topEntry // binary heap, worst retained entry first
}

type topEntry struct {
	pair  timeseries.Pair
	value float64
}

// NewTopHeap returns a heap retaining the k best entries (largest selects the
// direction: true keeps the greatest values, false the smallest).
func NewTopHeap(k int, largest bool) *TopHeap {
	return &TopHeap{k: k, largest: largest, entries: make([]topEntry, 0, k)}
}

// better reports whether a ranks strictly ahead of b in the result order.
func (h *TopHeap) better(a, b topEntry) bool {
	if a.value != b.value {
		if h.largest {
			return a.value > b.value
		}
		return a.value < b.value
	}
	return pairLess(a.pair, b.pair)
}

// Offer considers one entry; NaN values (undefined measures) never rank.
func (h *TopHeap) Offer(p timeseries.Pair, v float64) {
	if math.IsNaN(v) {
		return
	}
	e := topEntry{pair: p, value: v}
	if len(h.entries) < h.k {
		h.entries = append(h.entries, e)
		h.siftUp(len(h.entries) - 1)
		return
	}
	if !h.better(e, h.entries[0]) {
		return
	}
	h.entries[0] = e
	h.siftDown(0)
}

// Len returns the number of retained entries.
func (h *TopHeap) Len() int { return len(h.entries) }

// Full reports whether k entries are retained.
func (h *TopHeap) Full() bool { return len(h.entries) >= h.k }

// Threshold returns the running interval's moving endpoint: the value v_k of
// the worst retained entry once the heap is full.  An entry can still enter a
// full heap with value exactly v_k (winning the pair-id tie-break), so
// pruning against it must keep the closed endpoint.
func (h *TopHeap) Threshold() (float64, bool) {
	if !h.Full() {
		return 0, false
	}
	return h.entries[0].value, true
}

// Sorted returns the retained entries best-first.
func (h *TopHeap) Sorted() ([]timeseries.Pair, []float64) {
	es := append([]topEntry(nil), h.entries...)
	// better is a strict total order (value, then pair id; Offer admits no
	// NaN), so the sorted permutation is unique.
	slices.SortFunc(es, func(a, b topEntry) int {
		if h.better(a, b) {
			return -1
		}
		return 1
	})
	pairs := make([]timeseries.Pair, len(es))
	values := make([]float64, len(es))
	for i, e := range es {
		pairs[i] = e.pair
		values[i] = e.value
	}
	return pairs, values
}

// heap plumbing: entries[0] is the WORST retained entry, so the comparison is
// inverted (parents rank behind their children).
func (h *TopHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.better(h.entries[p], h.entries[i]) {
			return
		}
		h.entries[p], h.entries[i] = h.entries[i], h.entries[p]
		i = p
	}
}

func (h *TopHeap) siftDown(i int) {
	n := len(h.entries)
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if h.better(h.entries[worst], h.entries[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.entries[i], h.entries[worst] = h.entries[worst], h.entries[i]
		i = worst
	}
}

// TopKCursor walks one index's pivot nodes in best-first bound order, one
// node per Step, against a caller-supplied result heap.  It is the resumable
// form of PairTopK: the caller can peek the next unscanned node's optimistic
// bound (NextBound) before deciding to scan it, which is what lets a
// multi-index coordinator interleave several indexes into one global top-k —
// each index is just a bound-ordered node source, and the shared heap's
// running [v_k, ·) interval prunes every source against the global k-th
// value.
type TopKCursor struct {
	idx *Index
	sp  *measure.Spec
	// slot is the position of the spec's base T-measure in a node's measures;
	// bounds holds a derived spec's pruning bounds per node.
	slot     int
	bounds   [][2]float64
	largest  bool
	cands    []nodeCand
	next     int
	examined int
}

// nodeCand is one pivot node (by position in the index) with its optimistic
// bound, in traversal order.
type nodeCand struct {
	order int
	bound float64
}

// NewTopKCursor prepares a best-first traversal for a pairwise measure: every
// pivot node's optimistic bound is evaluated and the nodes are sorted by
// (bound best-first, node order).  The cursor itself holds no result state —
// ranking lives in the TopHeap passed to Step — so several cursors can feed
// one heap.
func (idx *Index) NewTopKCursor(m stats.Measure, largest bool) (*TopKCursor, error) {
	sp, err := pairSpec(m)
	if err != nil {
		return nil, err
	}
	if sp.Derived() && !idx.derivedSet[m] {
		return nil, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, m)
	}
	c := &TopKCursor{idx: idx, sp: sp, slot: idx.baseSlot(sp.Base), largest: largest}
	if c.slot < 0 {
		return nil, fmt.Errorf("%w: %v", ErrMeasureNotIndexed, sp.Base)
	}
	if sp.Derived() {
		c.bounds = idx.paramBoundsOf(sp)
	}
	cands := make([]nodeCand, 0, len(idx.pivots))
	for i := range idx.pivots {
		if bound, ok := c.nodeTopBound(i); ok {
			cands = append(cands, nodeCand{order: i, bound: bound})
		}
	}
	// Bound best-first, then node position: a strict total order, because
	// nodeTopBound maps a NaN bound to ±Inf.
	slices.SortFunc(cands, func(a, b nodeCand) int {
		ahead := a.order < b.order
		if a.bound != b.bound {
			ahead = a.bound < b.bound
			if largest {
				ahead = a.bound > b.bound
			}
		}
		if ahead {
			return -1
		}
		return 1
	})
	c.cands = cands
	return c, nil
}

// NextBound returns the optimistic bound of the next unscanned pivot node,
// or false when the cursor is exhausted.  The bound is the best value the
// node could possibly contribute; because nodes are bound-sorted it also
// bounds everything the cursor has left.
func (c *TopKCursor) NextBound() (float64, bool) {
	if c.next >= len(c.cands) {
		return 0, false
	}
	return c.cands[c.next].bound, true
}

// Step scans the next pivot node against the heap, restricted to the heap's
// running [v_k, ·) interval, and returns the number of sequence-node entries
// examined.  Callers decide when to stop by comparing NextBound against the
// heap's Threshold.
func (c *TopKCursor) Step(heap *TopHeap) (int, error) {
	if c.next >= len(c.cands) {
		return 0, nil
	}
	n := c.scanNodeTopK(c.cands[c.next].order, heap)
	c.next++
	c.examined += n
	return n, nil
}

// Examined returns the total number of sequence-node entries the cursor's
// Steps have evaluated.
func (c *TopKCursor) Examined() int { return c.examined }

// Exhausted reports whether every candidate node has been scanned.
func (c *TopKCursor) Exhausted() bool { return c.next >= len(c.cands) }

// BoundBeats reports whether an optimistic bound could still improve a full
// heap with k-th value vk: true unless the bound is strictly worse.  A bound
// equal to vk must still be scanned — an entry at exactly vk can win the
// pair-id tie-break.
func BoundBeats(bound, vk float64, largest bool) bool {
	if largest {
		return bound >= vk
	}
	return bound <= vk
}

// PairTopK answers a top-k (MEK) query over a pairwise measure from the
// index: the k pairs with the greatest (largest) or smallest measure value as
// represented by the index, best first with ties broken by pair identity.
// It returns the aligned values and the number of sequence-node entries
// examined — the work metric the pruning saves against a full sweep.
func (idx *Index) PairTopK(m stats.Measure, k int, largest bool) ([]timeseries.Pair, []float64, int, error) {
	if k <= 0 {
		return nil, nil, 0, fmt.Errorf("%w: top-k needs k >= 1, got %d", ErrBadQuery, k)
	}
	cur, err := idx.NewTopKCursor(m, largest)
	if err != nil {
		return nil, nil, 0, err
	}
	heap := NewTopHeap(k, largest)
	for !cur.Exhausted() {
		// Pruning invariant: once the heap is full, a node whose optimistic
		// bound is strictly worse than v_k cannot contribute — and the list is
		// bound-sorted, so neither can any later node.
		bound, _ := cur.NextBound()
		if vk, full := heap.Threshold(); full && !BoundBeats(bound, vk, largest) {
			break
		}
		if _, err := cur.Step(heap); err != nil {
			return nil, nil, 0, err
		}
	}
	pairs, values := heap.Sorted()
	return pairs, values, cur.Examined(), nil
}

// runningInterval is the predicate "could still enter the heap": unbounded
// until the heap fills, then closed at v_k on the moving side.  The endpoint
// is padded outward by the scan epsilon so an entry whose value reconstructs
// to exactly v_k through a differently-rounded ξ window is still examined
// (the heap's exact comparison rejects anything genuinely worse).
func runningInterval(heap *TopHeap, largest bool) interval.Interval {
	vk, full := heap.Threshold()
	if !full {
		return interval.All()
	}
	if largest {
		return interval.AtLeast(padBound(vk, -1))
	}
	return interval.AtMost(padBound(vk, +1))
}

// scanNodeTopK offers every entry of pivot node i that could still enter the
// heap, restricting the scan to the running interval's ξ window, and returns
// the number of entries examined.
func (c *TopKCursor) scanNodeTopK(i int, heap *TopHeap) int {
	idx, sp := c.idx, c.sp
	iv := runningInterval(heap, c.largest)
	examined := 0
	if !sp.Derived() {
		pm := &idx.pivots[i].measures[c.slot]
		if pm.alphaNorm == 0 {
			if iv.Contains(0) {
				pm.xi.Ascend(func(_ float64, sn *sequenceNode) bool {
					examined++
					heap.Offer(sn.pair, 0)
					return true
				})
			}
			return examined
		}
		pm.xi.ascendInterval(scaleInterval(iv, pm.alphaNorm), func(xi float64, sn *sequenceNode) bool {
			examined++
			heap.Offer(sn.pair, pm.alphaNorm*xi)
			return true
		})
		return examined
	}

	db := idx.nodeBounds(i, c.slot, sp, c.bounds)
	pred := compileDerivedPredicate(sp, iv)
	if pred.empty {
		return 0
	}
	offer := func(xi float64, sn *sequenceNode) bool {
		examined++
		if v, ok := idx.derivedValue(db.pm, sn, sp, xi); ok {
			heap.Offer(sn.pair, v)
		}
		return true
	}
	if pred.evalAll || !db.canPrune {
		db.pm.xi.Ascend(offer)
		return examined
	}
	// Unlike an interval scan there is no blind-accept region: the heap needs
	// every candidate's exact value to rank it, so the whole conservative
	// window is evaluated.
	w := db.window(sp, pred.eval, idx.numSamples)
	db.pm.xi.AscendRange(w.scanLo, w.scanHi, offer)
	return examined
}

// SeriesTopK answers a top-k query over an L-measure: the k series with the
// greatest (largest) or smallest measure value in the global location column,
// best first with ties broken by ascending series identity.
func (idx *Index) SeriesTopK(m stats.Measure, k int, largest bool) ([]timeseries.SeriesID, []float64, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("%w: top-k needs k >= 1, got %d", ErrBadQuery, k)
	}
	col, err := idx.locationOf(m)
	if err != nil {
		return nil, nil, err
	}
	// A NaN value ranks nowhere; the column keeps those first.
	first := rankBelow(col.keys, math.Inf(-1))
	k = min(k, len(col.keys)-first)
	if !largest {
		return slices.Clone(col.ids[first : first+k]), slices.Clone(col.keys[first : first+k]), nil
	}
	// Descending by value, but a run of equal values stays in id order: walk
	// the runs from the top, each run forwards.
	ids := make([]timeseries.SeriesID, 0, k)
	values := make([]float64, 0, k)
	for hi := len(col.keys); len(ids) < k; {
		lo := rankBelow(col.keys, col.keys[hi-1])
		n := min(hi-lo, k-len(ids))
		ids = append(ids, col.ids[lo:lo+n]...)
		values = append(values, col.keys[lo:lo+n]...)
		hi = lo
	}
	return ids, values, nil
}

// nodeTopBound returns the optimistic bound on the best value a pivot node
// can contain for the measure: exact container extremes scaled by ‖α‖ for
// T-measures; for D-measures the transform evaluated at the corners of the
// [T_min, T_max] × [U^min, U^max] box (every registered transform is monotone
// in T and, for fixed T, monotone in U, so the box extrema sit at corners).
// Nodes whose parameter bounds cannot prune report an unbounded optimum and
// are simply scanned before the traversal can stop.  A node without an entry
// of defined ξ reports false.
func (c *TopKCursor) nodeTopBound(i int) (float64, bool) {
	idx, sp, largest := c.idx, c.sp, c.largest
	pm := &idx.pivots[i].measures[c.slot]
	minXi, ok := pm.xi.MinKey()
	if !ok {
		return 0, false
	}
	maxXi, _ := pm.xi.MaxKey()
	if !sp.Derived() {
		if pm.alphaNorm == 0 {
			return 0, true
		}
		if largest {
			return pm.alphaNorm * maxXi, true
		}
		return pm.alphaNorm * minXi, true
	}
	db := idx.nodeBounds(i, c.slot, sp, c.bounds)
	unbounded := math.Inf(1)
	if !largest {
		unbounded = math.Inf(-1)
	}
	if !db.canPrune {
		return unbounded, true
	}
	bound := math.NaN()
	for _, t := range [2]float64{pm.alphaNorm * minXi, pm.alphaNorm * maxXi} {
		for _, u := range [2]float64{db.uMin, db.uMax} {
			v, err := sp.Value(t, u, idx.numSamples)
			if err != nil {
				return unbounded, true
			}
			if math.IsNaN(bound) || (largest && v > bound) || (!largest && v < bound) {
				bound = v
			}
		}
	}
	if math.IsNaN(bound) {
		return unbounded, true
	}
	// Padded outward: corner and per-entry evaluations round differently, and
	// an under-estimated bound would let the traversal stop before a node
	// holding a boundary entry.  The pad only delays the stop marginally.
	if largest {
		return padBound(bound, +1), true
	}
	return padBound(bound, -1), true
}
