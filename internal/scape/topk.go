// Top-k (MEK) queries over the SCAPE index: the k pairs with the most extreme
// measure value, executed as a best-first traversal of the pivot nodes.
//
// Top-k is "adaptively discover the interval [v_k, best]": every pivot node
// is bounded by the best value it contains — its container extreme scaled by
// ‖α‖ for a T-measure, its value-column extreme for a D-measure — and the
// nodes are visited best-first.  A T-measure node is scanned only inside the
// running interval [v_k, ·] (v_k = the k-th best value found so far,
// tightening as the result heap fills), a D-measure node offers its column
// values, and the traversal stops as soon as the next node's bound cannot
// beat v_k — nodes beyond that point are never examined at all.
package scape

import (
	"fmt"
	"math"
	"slices"

	"affinity/internal/interval"
	"affinity/internal/measure"
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
	return timeseries.ComparePairs(a.pair, b.pair) < 0
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
	// col is a derived spec's value column.
	slot    int
	col     *valueColumn
	largest bool
	// cands is a binary heap of the unscanned nodes, the next one first.
	cands    []nodeCand
	examined int
}

// nodeCand is one pivot node (by position in the index) with its optimistic
// bound.
type nodeCand struct {
	order int
	bound float64
}

// NewTopKCursor prepares a best-first traversal for a pairwise measure: every
// pivot node's optimistic bound is evaluated and the nodes are heaped by
// (bound best-first, node order).  The cursor itself holds no result state —
// ranking lives in the TopHeap passed to Step — so several cursors can feed
// one heap.
func (idx *Index) NewTopKCursor(m measure.Measure, largest bool) (*TopKCursor, error) {
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
		c.col = idx.columnOf(sp)
	}
	c.cands = make([]nodeCand, 0, len(idx.pivots))
	for i := range idx.pivots {
		if bound, ok := c.nodeTopBound(i); ok {
			c.cands = append(c.cands, nodeCand{order: i, bound: bound})
		}
	}
	for i := len(c.cands)/2 - 1; i >= 0; i-- {
		c.siftDown(i)
	}
	return c, nil
}

// ahead reports whether candidate a is visited before b: bound best-first,
// then node position — a strict total order, because no bound is NaN.
func (c *TopKCursor) ahead(a, b nodeCand) bool {
	if a.bound != b.bound {
		if c.largest {
			return a.bound > b.bound
		}
		return a.bound < b.bound
	}
	return a.order < b.order
}

func (c *TopKCursor) siftDown(i int) {
	n := len(c.cands)
	for {
		first := i
		for ch := 2*i + 1; ch <= 2*i+2 && ch < n; ch++ {
			if c.ahead(c.cands[ch], c.cands[first]) {
				first = ch
			}
		}
		if first == i {
			return
		}
		c.cands[i], c.cands[first] = c.cands[first], c.cands[i]
		i = first
	}
}

// NextBound returns the optimistic bound of the next unscanned pivot node,
// or false when the cursor is exhausted.  The bound is the best value the
// node could possibly contribute; because nodes are visited in bound order it
// also bounds everything the cursor has left.
func (c *TopKCursor) NextBound() (float64, bool) {
	if len(c.cands) == 0 {
		return 0, false
	}
	return c.cands[0].bound, true
}

// Step scans the next pivot node against the heap, restricted to the heap's
// running [v_k, ·) interval, and returns the number of sequence-node entries
// examined.  Callers decide when to stop by comparing NextBound against the
// heap's Threshold.
func (c *TopKCursor) Step(heap *TopHeap) (int, error) {
	if len(c.cands) == 0 {
		return 0, nil
	}
	i := c.cands[0].order
	last := len(c.cands) - 1
	c.cands[0] = c.cands[last]
	c.cands = c.cands[:last]
	c.siftDown(0)
	n := c.scanNodeTopK(i, heap)
	c.examined += n
	return n, nil
}

// Examined returns the total number of sequence-node entries the cursor's
// Steps have examined.
func (c *TopKCursor) Examined() int { return c.examined }

// Exhausted reports whether every candidate node has been scanned.
func (c *TopKCursor) Exhausted() bool { return len(c.cands) == 0 }

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
func (idx *Index) PairTopK(m measure.Measure, k int, largest bool) ([]timeseries.Pair, []float64, int, error) {
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
		// bound is strictly worse than v_k cannot contribute — and nodes come
		// in bound order, so neither can any later node.
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

// runningInterval is the predicate "could still enter the heap" of a T-measure
// scan: unbounded until the heap fills, then closed at v_k on the moving side.
// The endpoint is padded outward by a relative epsilon so an entry whose value
// reconstructs to exactly v_k through a differently-rounded ξ window is still
// examined (the heap's exact comparison rejects anything genuinely worse).
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

// padBound nudges a bound outward (dir = −1 toward smaller values, +1 toward
// larger) by a relative epsilon; infinite bounds stay where they are.
func padBound(x float64, dir float64) float64 {
	if math.IsInf(x, 0) {
		return x
	}
	return x + dir*1e-9*(1+math.Abs(x))
}

// scanNodeTopK offers pivot node i's entries to the heap and returns the
// number of entries examined: a T-measure node's entries inside the running
// interval's ξ window, a D-measure node's every value from the column.
func (c *TopKCursor) scanNodeTopK(i int, heap *TopHeap) int {
	pm := &c.idx.pivots[i].measures[c.slot]
	if c.col != nil {
		values := c.idx.nodeValues(c.col, i)
		for j, v := range values {
			heap.Offer(pm.xi.node(j).pair, v)
		}
		return len(values)
	}
	iv := runningInterval(heap, c.largest)
	examined := 0
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

// SeriesTopK answers a top-k query over an L-measure: the k series with the
// greatest (largest) or smallest measure value in the global location column,
// best first with ties broken by ascending series identity.
func (idx *Index) SeriesTopK(m measure.Measure, k int, largest bool) ([]timeseries.SeriesID, []float64, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("%w: top-k needs k >= 1, got %d", ErrBadQuery, k)
	}
	col, _, err := idx.locationOf(m)
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
// can contain for the measure: the exact container extreme scaled by ‖α‖ for
// a T-measure, the exact column extreme for a D-measure.  A node without an
// entry of defined ξ — or, for a D-measure, of defined value — reports false.
func (c *TopKCursor) nodeTopBound(i int) (float64, bool) {
	if c.col != nil {
		lo, hi := c.col.extremes[i][0], c.col.extremes[i][1]
		if lo > hi {
			return 0, false
		}
		if c.largest {
			return hi, true
		}
		return lo, true
	}
	pm := &c.idx.pivots[i].measures[c.slot]
	minXi, ok := pm.xi.MinKey()
	if !ok {
		return 0, false
	}
	maxXi, _ := pm.xi.MaxKey()
	if pm.alphaNorm == 0 {
		return 0, true
	}
	if c.largest {
		return pm.alphaNorm * maxXi, true
	}
	return pm.alphaNorm * minXi, true
}
