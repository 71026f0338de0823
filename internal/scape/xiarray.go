package scape

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"affinity/internal/interval"
)

// xiArray is one (pivot, measure) ξ-container: the pivot's sequence nodes
// sorted by scalar projection — the keys and, beside them, the canonical rank
// of each entry's node in the pivot's sequence store, in exact-size windows of
// the index's slabs.  A ξ-container is derived from the epoch's window, built
// in one piece and replaced wholesale by the next epoch, so a sorted array
// answers its ordered scans and rank counts.  Keeping ranks instead of node
// pointers halves the per-entry payload — the store lives once per pivot,
// shared across measures and, when no pair of the pivot went stale, across
// epochs — and is what lets the next epoch start from this one's order.
//
// Entries are ordered by (ξ, canonical pair rank) — what a stable sort by ξ
// over canonically ordered nodes produces.  A NaN ξ (only an overflowed
// transform yields one) sorts first, as cmp.Compare orders it, where no range
// scan reaches it: every bound comparison against NaN is false.
type xiArray struct {
	keys  []float64
	ranks []int32
	canon []sequenceNode
}

// xiEntry is one projected node while a container is being sorted: its ξ and
// its rank in the pivot's canonical pair order.
type xiEntry struct {
	xi   float64
	rank int32
}

// compareXi is the container order: a strict total order, since ranks are
// distinct.
func compareXi(a, b xiEntry) int {
	switch {
	case a.xi < b.xi:
		return -1
	case a.xi > b.xi:
		return +1
	case a.xi == b.xi:
		return cmp.Compare(a.rank, b.rank)
	}
	// One of the two is NaN: cmp.Compare orders NaN first.
	return cmp.Or(cmp.Compare(a.xi, b.xi), cmp.Compare(a.rank, b.rank))
}

// sortXi puts the entries into container order.
func sortXi(entries []xiEntry) {
	slices.SortFunc(entries, compareXi)
}

// repairXi puts entries that are expected to be nearly in container order
// into it: an insertion sort, linear in the entries plus the inversions it
// removes.  The order is total, so the result is sortXi's, entry for entry;
// once the inversions outgrow a small multiple of the length (the previous
// order told nothing about this one) it hands the rest to sortXi.
func repairXi(entries []xiEntry) {
	budget := 4 * len(entries)
	for i := 1; i < len(entries); i++ {
		e, j := entries[i], i
		for ; j > 0 && compareXi(e, entries[j-1]) < 0; j-- {
			entries[j] = entries[j-1]
		}
		entries[j] = e
		if budget -= i - j; budget < 0 {
			sortXi(entries)
			return
		}
	}
}

// Len returns the number of entries.
func (a *xiArray) Len() int { return len(a.keys) }

// node returns the sequence node of entry i.
func (a *xiArray) node(i int) *sequenceNode { return &a.canon[a.ranks[i]] }

// Ascend visits every entry in container order until fn returns false.
func (a *xiArray) Ascend(fn func(xi float64, sn *sequenceNode) bool) {
	for i, xi := range a.keys {
		if !fn(xi, a.node(i)) {
			return
		}
	}
}

// AscendRange visits the entries with min <= ξ <= max in container order
// until fn returns false.
func (a *xiArray) AscendRange(min, max float64, fn func(xi float64, sn *sequenceNode) bool) {
	a.ascendInterval(interval.Between(min, max), fn)
}

// rankBelow returns how many keys of a sorted column (ascending, NaN first: a
// ξ-container's) are ordered before key: the smaller ones, and the NaN ones.
func rankBelow(keys []float64, key float64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
}

// rankThrough returns how many keys of a sorted column are not above key,
// NaN ones included.
func rankThrough(keys []float64, key float64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

// keyWindow returns the index window [lo, hi) of the keys of a sorted column
// that lie in iv (hi <= lo when there is none).  An unbounded low side still
// ranks −∞: that skips exactly the NaN keys, which no bound comparison is
// true of.
func keyWindow(keys []float64, iv interval.Interval) (lo, hi int) {
	switch {
	case iv.Lo.Unbounded:
		lo = rankBelow(keys, math.Inf(-1))
	case iv.Lo.Open:
		lo = rankThrough(keys, iv.Lo.Value)
	default:
		lo = rankBelow(keys, iv.Lo.Value)
	}
	switch {
	case iv.Hi.Unbounded:
		hi = len(keys)
	case iv.Hi.Open:
		hi = rankBelow(keys, iv.Hi.Value)
	default:
		hi = rankThrough(keys, iv.Hi.Value)
	}
	return lo, hi
}

// ascendInterval visits the entries whose ξ lies in iv, in container order,
// until fn returns false.
func (a *xiArray) ascendInterval(iv interval.Interval, fn func(xi float64, sn *sequenceNode) bool) {
	lo, hi := keyWindow(a.keys, iv)
	for i := lo; i < hi; i++ {
		if !fn(a.keys[i], a.node(i)) {
			return
		}
	}
}

// countInterval counts the entries whose ξ lies in iv in O(log k).
func (a *xiArray) countInterval(iv interval.Interval) int {
	lo, hi := keyWindow(a.keys, iv)
	return max(hi-lo, 0)
}

// MinKey returns the smallest ξ, and false when the container holds no
// entry with a defined (non-NaN) ξ.
func (a *xiArray) MinKey() (float64, bool) {
	first := 0
	if len(a.keys) > 0 && math.IsNaN(a.keys[0]) {
		first = rankBelow(a.keys, math.Inf(-1)) // past the NaN entries
	}
	if first == len(a.keys) {
		return 0, false
	}
	return a.keys[first], true
}

// MaxKey returns the largest ξ, and false when the container holds no entry
// with a defined (non-NaN) ξ.
func (a *xiArray) MaxKey() (float64, bool) {
	if _, ok := a.MinKey(); !ok {
		return 0, false
	}
	return a.keys[len(a.keys)-1], true
}
