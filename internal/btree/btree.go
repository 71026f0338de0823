// Package btree provides an in-memory B+-tree keyed by float64 with support
// for duplicate keys, ordered range scans, O(log n) rank/count queries,
// deletion with rebalancing, and copy-on-write clones.
//
// The SCAPE index (Section 5 of the paper) stores, per pivot pair, a "sorted
// container, like a B-tree" of sequence nodes.  This package is that sorted
// container wherever the index mutates one: the per-pivot sequence stores
// (keyed by pair code, carried across epochs and delta-updated) and the
// global location trees (filled by ordered inserts).  The per-(pivot,
// measure) containers keyed by the scalar projection ξ are not trees any
// more: ξ depends on the window, so they are re-derived whole every epoch
// and never mutated, and internal/scape keeps them as exact-size sorted
// arrays (scape.xiArray) with the same scan and rank operations.
//
// Clone produces a second tree sharing every node with the original;
// mutations on either side copy only the touched root-to-leaf path, so the
// streaming engine can delta-build the next epoch's sequence stores while
// concurrent readers keep scanning the previous epoch untouched
// (persistent-tree-style structural sharing).
package btree

import "sort"

// defaultOrder is the maximum number of keys per node.  32 keeps nodes within
// a cache line or two while giving a branching factor high enough that trees
// over hundreds of thousands of relationships stay shallow.
const defaultOrder = 32

// cowTag identifies the owner of a node.  A node is mutable by a tree only
// when their tags match; Clone hands out fresh tags, so every node that
// existed before the clone is treated as shared (and copied on first write)
// by both trees.
type cowTag struct{ _ byte }

// node is one B+-tree node.  Leaves carry the entries (keys aligned with
// values); internal nodes carry separator keys and children, with
// len(children) == len(keys)+1 and keys[i] satisfying
// max(children[i]) <= keys[i] <= min(children[i+1]).  Separators may go stale
// after deletions (the separated key may no longer exist) without breaking
// that ordering invariant, which is all the descent logic relies on.
type node[V any] struct {
	keys     []float64
	values   []V        // leaves only
	children []*node[V] // empty for leaves
	// total is the number of entries stored in the subtree, maintained on
	// every mutation so rank/count queries run in O(log n).
	total int
	cow   *cowTag
}

func (n *node[V]) leaf() bool { return len(n.children) == 0 }

// Tree is a B+-tree mapping float64 keys to values of type V.  Duplicate keys
// are allowed; values with equal keys are returned in insertion order during
// scans.  The zero value is not usable; call New.
type Tree[V any] struct {
	root  *node[V]
	size  int
	order int
	cow   *cowTag
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	cow := &cowTag{}
	return &Tree[V]{root: &node[V]{cow: cow}, order: defaultOrder, cow: cow}
}

// Len returns the number of stored entries.
func (t *Tree[V]) Len() int { return t.size }

// Clone returns a copy of the tree sharing every node with the receiver.
// Both trees remain fully usable: the first mutation of a shared node on
// either side copies just that node (path copying), so a clone is O(1) and
// the memory cost of divergence is proportional to the paths actually
// touched.  Readers of one tree are never affected by writes to the other.
func (t *Tree[V]) Clone() *Tree[V] {
	// Hand both trees fresh tags: every currently reachable node keeps the
	// old tag and is therefore treated as shared by both sides.
	t.cow = &cowTag{}
	return &Tree[V]{root: t.root, size: t.size, order: t.order, cow: &cowTag{}}
}

// mutable returns n if the tree owns it, or an owned copy otherwise.
func (t *Tree[V]) mutable(n *node[V]) *node[V] {
	if n.cow == t.cow {
		return n
	}
	cp := &node[V]{total: n.total, cow: t.cow}
	cp.keys = make([]float64, len(n.keys), t.order+1)
	copy(cp.keys, n.keys)
	if n.leaf() {
		cp.values = make([]V, len(n.values), t.order+1)
		copy(cp.values, n.values)
	} else {
		cp.children = make([]*node[V], len(n.children), t.order+2)
		copy(cp.children, n.children)
	}
	return cp
}

// mutableChild makes child i of the (already owned) parent mutable, storing
// the copy back into the parent.
func (t *Tree[V]) mutableChild(parent *node[V], i int) *node[V] {
	c := t.mutable(parent.children[i])
	parent.children[i] = c
	return c
}

// Insert adds an entry to the tree.  Equal keys keep insertion order in every
// scan.
func (t *Tree[V]) Insert(key float64, value V) {
	t.root = t.mutable(t.root)
	sep, right := t.insertInto(t.root, key, value)
	if right != nil {
		t.root = &node[V]{
			keys:     append(make([]float64, 0, t.order+1), sep),
			children: append(make([]*node[V], 0, t.order+2), t.root, right),
			total:    t.root.total + right.total,
			cow:      t.cow,
		}
	}
	t.size++
}

// insertInto adds the entry below n (which must be owned by t) and reports a
// split: a non-nil right sibling with sepKey separating n from it.
func (t *Tree[V]) insertInto(n *node[V], key float64, value V) (sepKey float64, right *node[V]) {
	if n.leaf() {
		// Position after any existing equal keys to keep insertion order
		// stable.
		pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
		n.keys = append(n.keys, 0)
		copy(n.keys[pos+1:], n.keys[pos:])
		n.keys[pos] = key
		var zero V
		n.values = append(n.values, zero)
		copy(n.values[pos+1:], n.values[pos:])
		n.values[pos] = value
		n.total++
		if len(n.keys) <= t.order {
			return 0, nil
		}
		// Split in half; the right sibling takes the upper half.
		mid := len(n.keys) / 2
		r := &node[V]{
			keys:   append(make([]float64, 0, t.order+1), n.keys[mid:]...),
			values: append(make([]V, 0, t.order+1), n.values[mid:]...),
			cow:    t.cow,
		}
		r.total = len(r.keys)
		n.keys = n.keys[:mid]
		n.values = n.values[:mid]
		n.total = mid
		return r.keys[0], r
	}

	// Descend right of any separator equal to the key so duplicates append
	// after their equals.
	idx := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	child := t.mutableChild(n, idx)
	sep, r := t.insertInto(child, key, value)
	n.total++
	if r == nil {
		return 0, nil
	}
	// Insert the separator and the new child after position idx.
	n.keys = append(n.keys, 0)
	copy(n.keys[idx+1:], n.keys[idx:])
	n.keys[idx] = sep
	n.children = append(n.children, nil)
	copy(n.children[idx+2:], n.children[idx+1:])
	n.children[idx+1] = r

	if len(n.keys) <= t.order {
		return 0, nil
	}
	// Split the internal node; the middle key is promoted.
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	sib := &node[V]{
		keys:     append(make([]float64, 0, t.order+1), n.keys[mid+1:]...),
		children: append(make([]*node[V], 0, t.order+2), n.children[mid+1:]...),
		cow:      t.cow,
	}
	for _, c := range sib.children {
		sib.total += c.total
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	n.total -= sib.total
	return promoted, sib
}

// minItems is the fill floor delete rebalancing restores for non-root nodes.
func (t *Tree[V]) minItems() int { return t.order / 2 }

// Delete removes the first entry (in scan order) whose key equals key and
// whose value satisfies match, and reports whether one was removed.  The
// traversal inspects only the duplicates of that exact key, so the total cost
// is O(log n + duplicates); the structural removal itself is O(log n) with
// borrow/merge rebalancing, and subtree counts stay exact.
func (t *Tree[V]) Delete(key float64, match func(V) bool) bool {
	pos := -1
	off := t.Rank(key)
	i := 0
	t.AscendGreaterOrEqual(key, func(k float64, v V) bool {
		if k != key {
			return false
		}
		if match(v) {
			pos = off + i
			return false
		}
		i++
		return true
	})
	if pos < 0 {
		return false
	}
	t.deleteAt(pos)
	return true
}

// deleteAt removes the entry at global index i (0-based, in scan order).
func (t *Tree[V]) deleteAt(i int) {
	t.root = t.mutable(t.root)
	t.removeAt(t.root, i)
	if !t.root.leaf() && len(t.root.children) == 1 {
		// The root lost its last separator: collapse one level.
		t.root = t.root.children[0]
	}
	t.size--
}

// removeAt removes the i-th entry of the subtree rooted at n (owned by t),
// rebalancing children that underflow.
func (t *Tree[V]) removeAt(n *node[V], i int) {
	if n.leaf() {
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.values = append(n.values[:i], n.values[i+1:]...)
		n.total--
		return
	}
	j := 0
	for ; j < len(n.children); j++ {
		c := n.children[j].total
		if i < c {
			break
		}
		i -= c
	}
	child := t.mutableChild(n, j)
	t.removeAt(child, i)
	n.total--
	if len(child.keys) < t.minItems() {
		t.rebalance(n, j)
	}
}

// rebalance restores the fill floor of child j of n by borrowing from a
// sibling with spare entries, or merging with a sibling otherwise.  Separator
// keys are refreshed to the exact boundary on every move, preserving the
// ordering invariant max(left) <= sep <= min(right).
func (t *Tree[V]) rebalance(n *node[V], j int) {
	child := n.children[j] // already owned by removeAt
	if j > 0 && len(n.children[j-1].keys) > t.minItems() {
		left := t.mutableChild(n, j-1)
		if child.leaf() {
			last := len(left.keys) - 1
			child.keys = append(child.keys, 0)
			copy(child.keys[1:], child.keys)
			child.keys[0] = left.keys[last]
			child.values = append(child.values, child.values[0])
			copy(child.values[1:], child.values)
			child.values[0] = left.values[last]
			left.keys = left.keys[:last]
			left.values = left.values[:last]
			child.total++
			left.total--
			n.keys[j-1] = child.keys[0]
			return
		}
		// Rotate through the parent: the old separator moves down in front of
		// the child's keys, the left sibling's last key moves up.
		lastK := len(left.keys) - 1
		lastC := len(left.children) - 1
		moved := left.children[lastC]
		child.keys = append(child.keys, 0)
		copy(child.keys[1:], child.keys)
		child.keys[0] = n.keys[j-1]
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = moved
		n.keys[j-1] = left.keys[lastK]
		left.keys = left.keys[:lastK]
		left.children = left.children[:lastC]
		child.total += moved.total
		left.total -= moved.total
		return
	}
	if j < len(n.children)-1 && len(n.children[j+1].keys) > t.minItems() {
		right := t.mutableChild(n, j+1)
		if child.leaf() {
			child.keys = append(child.keys, right.keys[0])
			child.values = append(child.values, right.values[0])
			right.keys = append(right.keys[:0], right.keys[1:]...)
			right.values = append(right.values[:0], right.values[1:]...)
			child.total++
			right.total--
			n.keys[j] = right.keys[0]
			return
		}
		moved := right.children[0]
		child.keys = append(child.keys, n.keys[j])
		child.children = append(child.children, moved)
		n.keys[j] = right.keys[0]
		right.keys = append(right.keys[:0], right.keys[1:]...)
		right.children = append(right.children[:0], right.children[1:]...)
		child.total += moved.total
		right.total -= moved.total
		return
	}
	// Merge with a sibling (both at the floor): fold the right member of the
	// pair into the left and drop the separator.
	if j > 0 {
		j--
	}
	left := t.mutableChild(n, j)
	right := t.mutableChild(n, j+1)
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.values = append(left.values, right.values...)
	} else {
		left.keys = append(left.keys, n.keys[j])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	left.total += right.total
	n.keys = append(n.keys[:j], n.keys[j+1:]...)
	n.children = append(n.children[:j+1], n.children[j+2:]...)
}

// FromSorted builds a tree in O(n) from entries whose keys are already in
// non-decreasing order (entries with equal keys keep slice order, exactly as
// if inserted sequentially).  The slices are copied; keys and values must
// have equal length.  It panics when the keys are out of order.
func FromSorted[V any](keys []float64, values []V) *Tree[V] {
	if len(keys) != len(values) {
		panic("btree: FromSorted slices of unequal length")
	}
	t := New[V]()
	if len(keys) == 0 {
		return t
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			panic("btree: FromSorted keys out of order")
		}
	}
	// Leaf level: full chunks, with the final two chunks balanced so no leaf
	// sits below the delete-rebalancing floor.
	var level []*node[V]
	n := len(keys)
	for lo := 0; lo < n; {
		hi := lo + t.order
		if hi > n {
			hi = n
		}
		if rem := n - hi; rem > 0 && rem < t.minItems() {
			// Shrink this chunk so the remainder reaches the floor.
			hi = n - t.minItems()
		}
		lf := &node[V]{
			keys:   append(make([]float64, 0, t.order+1), keys[lo:hi]...),
			values: append(make([]V, 0, t.order+1), values[lo:hi]...),
			total:  hi - lo,
			cow:    t.cow,
		}
		level = append(level, lf)
		lo = hi
	}
	// Internal levels: group children, separator = min key of the right
	// member of each adjacent pair (the first key of its leftmost leaf).
	for len(level) > 1 {
		var next []*node[V]
		fanout := t.order + 1
		minChild := t.minItems() + 1
		for lo := 0; lo < len(level); {
			hi := lo + fanout
			if hi > len(level) {
				hi = len(level)
			}
			if rem := len(level) - hi; rem > 0 && rem < minChild {
				hi = len(level) - minChild
			}
			in := &node[V]{
				children: append(make([]*node[V], 0, t.order+2), level[lo:hi]...),
				cow:      t.cow,
			}
			in.keys = make([]float64, 0, t.order+1)
			for k := lo + 1; k < hi; k++ {
				in.keys = append(in.keys, minKeyOf(level[k]))
			}
			for _, c := range in.children {
				in.total += c.total
			}
			next = append(next, in)
			lo = hi
		}
		level = next
	}
	t.root = level[0]
	t.size = n
	return t
}

// minKeyOf returns the smallest key of a non-empty subtree.
func minKeyOf[V any](n *node[V]) float64 {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0]
}

// Ascend visits every entry in non-decreasing key order until fn returns
// false.
func (t *Tree[V]) Ascend(fn func(key float64, value V) bool) {
	ascendAll(t.root, fn)
}

func ascendAll[V any](n *node[V], fn func(key float64, value V) bool) bool {
	if n.leaf() {
		for i := range n.keys {
			if !fn(n.keys[i], n.values[i]) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !ascendAll(c, fn) {
			return false
		}
	}
	return true
}

// AscendGreaterOrEqual visits entries with key >= pivot in non-decreasing key
// order until fn returns false.
func (t *Tree[V]) AscendGreaterOrEqual(pivot float64, fn func(key float64, value V) bool) {
	ascendGE(t.root, pivot, fn)
}

func ascendGE[V any](n *node[V], pivot float64, fn func(key float64, value V) bool) bool {
	if n.leaf() {
		pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= pivot })
		for i := pos; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.values[i]) {
				return false
			}
		}
		return true
	}
	// Children left of the first separator >= pivot hold only smaller keys;
	// the descent child may straddle the pivot; everything right of it is
	// entirely >= pivot.
	idx := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= pivot })
	if !ascendGE(n.children[idx], pivot, fn) {
		return false
	}
	for _, c := range n.children[idx+1:] {
		if !ascendAll(c, fn) {
			return false
		}
	}
	return true
}

// AscendRange visits entries with min <= key <= max in non-decreasing key
// order until fn returns false.
func (t *Tree[V]) AscendRange(min, max float64, fn func(key float64, value V) bool) {
	if min > max {
		return
	}
	t.AscendGreaterOrEqual(min, func(key float64, value V) bool {
		if key > max {
			return false
		}
		return fn(key, value)
	})
}

// AscendLessThan visits entries with key < pivot in non-decreasing key order
// until fn returns false.
func (t *Tree[V]) AscendLessThan(pivot float64, fn func(key float64, value V) bool) {
	t.Ascend(func(key float64, value V) bool {
		if key >= pivot {
			return false
		}
		return fn(key, value)
	})
}

// Rank returns the number of entries with key strictly less than key, in
// O(log n) using the per-node subtree counts.
func (t *Tree[V]) Rank(key float64) int { return rankLess(t.root, key) }

func rankLess[V any](n *node[V], key float64) int {
	if n.leaf() {
		return sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	}
	idx := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	r := 0
	for _, c := range n.children[:idx] {
		r += c.total
	}
	return r + rankLess(n.children[idx], key)
}

// CountGreater returns the number of entries with key strictly greater than
// key, in O(log n).
func (t *Tree[V]) CountGreater(key float64) int { return t.size - countLE(t.root, key) }

func countLE[V any](n *node[V], key float64) int {
	if n.leaf() {
		return sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	}
	idx := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	c := 0
	for _, ch := range n.children[:idx] {
		c += ch.total
	}
	return c + countLE(n.children[idx], key)
}

// CountRange returns the number of entries with min <= key <= max, in
// O(log n) using the per-node subtree counts.
func (t *Tree[V]) CountRange(min, max float64) int {
	if min > max {
		return 0
	}
	return countLE(t.root, max) - rankLess(t.root, min)
}

// MinKey returns the smallest key and false when the tree is empty.
func (t *Tree[V]) MinKey() (float64, bool) {
	if t.size == 0 {
		return 0, false
	}
	return minKeyOf(t.root), true
}

// MaxKey returns the largest key and false when the tree is empty.
func (t *Tree[V]) MaxKey() (float64, bool) {
	if t.size == 0 {
		return 0, false
	}
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], true
}

// Height returns the number of levels in the tree (1 for a single leaf),
// useful in tests and diagnostics.
func (t *Tree[V]) Height() int {
	h := 1
	n := t.root
	for !n.leaf() {
		h++
		n = n.children[0]
	}
	return h
}
