// Package qcache is the epoch-aware semantic result cache behind the unified
// executor (internal/core) and the shard coordinator's global merge layer
// (internal/shard).
//
// The paper's online workload (Fig 12) is dominated by repeated hot probes:
// monitoring clients re-issue the same (measure, interval) and top-k queries
// every tick.  The engine's epoch model makes those results cacheable with a
// precise invalidation story — a result is a pure function of (logical query,
// execution method, epoch) — and the drift-bounded refit machinery (PR 6)
// already computes, on every Advance, exactly which affine relationships an
// epoch transition re-fit.  The cache turns that stale set into three reuse
// tiers:
//
//   - Exact hit: the same canonical query at the current epoch returns the
//     stored result with zero allocations.
//   - Semantic containment: an interval query contained in a cached entry's
//     interval filters the stored rows by their stored values instead of
//     touching the index, and top-k(k′ ≤ k, same direction) serves a prefix
//     of a cached ranking.
//   - Delta repair across Advance: a cached interval result survives an epoch
//     swap by re-evaluating only its own rows plus the epochs' stale pairs,
//     verified complete against the index's exact selectivity count (the
//     caller owns evaluation and verification; the cache owns the candidate
//     bookkeeping — see PlanRepair/CommitRepair).
//
// Entries are evicted deterministically: least-recently-used first under a
// byte budget, and eagerly on Advance once an entry's epoch falls out of the
// repairable window.  All results served from the cache share the stored
// backing arrays and must be treated as read-only snapshots — that sharing is
// what makes the exact-hit path allocation-free.
//
// The package sits below internal/core (which imports it), so results are
// expressed in raw pairs/values rather than core.QueryResult.
package qcache

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/timeseries"
)

// Tier identifies which reuse tier served a cached result.
type Tier uint8

const (
	// TierNone means the query was answered by a full execution.
	TierNone Tier = iota
	// TierExact is a same-key, same-epoch hit.
	TierExact
	// TierContained is an interval served by filtering a wider cached entry,
	// or a top-k prefix of a deeper cached ranking.
	TierContained
	// TierRepaired is an interval carried across an Advance by delta repair.
	TierRepaired
)

// String renders the tier as it appears in Explain plans ("" for TierNone).
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierContained:
		return "contained"
	case TierRepaired:
		return "repaired"
	default:
		return ""
	}
}

// Key is the canonical identity of a cacheable query: measure, logical kind,
// concrete execution method, and the kind's parameters with the interval in
// canonical form.  Keys are comparable, so exact lookups are one map probe.
// The epoch is deliberately not part of the key — it lives on the entry, which
// is what lets one entry migrate forward across Advances via delta repair.
type Key struct {
	Measure  measure.Measure
	Kind     plan.Kind
	Method   plan.Method
	Interval interval.Interval // canonical; zero for top-k
	K        int               // top-k only
	Largest  bool              // top-k only
}

// IntervalKey builds the key of an interval query, canonicalizing the
// predicate so every equal-meaning spelling lands on one entry.
func IntervalKey(m measure.Measure, method plan.Method, iv interval.Interval) Key {
	return Key{Measure: m, Kind: plan.KindInterval, Method: method, Interval: iv.Canonical()}
}

// TopKKey builds the key of a top-k query.
func TopKKey(m measure.Measure, method plan.Method, k int, largest bool) Key {
	return Key{Measure: m, Kind: plan.KindTopK, Method: method, K: k, Largest: largest}
}

// valid rejects keys that cannot behave as map keys: NaN interval endpoints
// never compare equal to themselves, so such a key could be inserted but never
// found again, leaking one entry per Put.
func (k Key) valid() bool {
	if k.Kind == plan.KindTopK {
		return k.K > 0
	}
	return !math.IsNaN(k.Interval.Lo.Value) && !math.IsNaN(k.Interval.Hi.Value)
}

// Result is the cached answer: pairs in the method's canonical result order,
// and the measure value of each pair.  Values backs containment filtering and
// repair seeding for interval entries and is the ranking for top-k entries;
// callers serving an interval query drop it (interval QueryResults carry nil
// Values by contract).  Both slices are shared with the cache — read-only.
type Result struct {
	Pairs  []timeseries.Pair
	Values []float64
}

// Options configures a cache.  The zero value is a disabled cache, which keeps
// every existing construction path byte-for-byte unchanged.
type Options struct {
	// Enabled turns the cache on.
	Enabled bool
	// MaxBytes is the eviction budget over all entries' estimated footprint
	// (default 32 MiB).
	MaxBytes int64
	// EpochHistory is how many trailing Advances' stale sets are retained for
	// delta repair; entries older than the window are expired (default 8).
	EpochHistory int
}

const (
	defaultMaxBytes     = 32 << 20
	defaultEpochHistory = 8
	// entryOverhead approximates the fixed per-entry footprint (struct, map
	// slot, list links) charged against MaxBytes on top of the slices.
	entryOverhead = 128
)

func (o Options) withDefaults() Options {
	if o.MaxBytes <= 0 {
		o.MaxBytes = defaultMaxBytes
	}
	if o.EpochHistory <= 0 {
		o.EpochHistory = defaultEpochHistory
	}
	return o
}

// Stats are the cache's aggregate counters.  Hit/miss/repair totals are
// cumulative; Entries/Bytes describe the current contents.
type Stats struct {
	ExactHits       int
	ContainmentHits int
	RepairHits      int
	Misses          int
	// RepairedPairs counts candidate pairs re-evaluated by delta repairs.
	RepairedPairs int
	// RepairFallbacks counts repairs abandoned because the repaired row count
	// disagreed with the index's exact selectivity (the query then re-ran cold).
	RepairFallbacks int
	// Evictions counts LRU evictions under the byte budget; Expired counts
	// entries dropped on Advance once they left the repairable epoch window.
	Evictions int
	Expired   int
	Entries   int
	Bytes     int64
}

type entry struct {
	key    Key
	epoch  int
	pairs  []timeseries.Pair
	values []float64
	bytes  int64
	hits   int
	// Intrusive LRU list: prev is toward the most recently used end.
	prev, next *entry
}

// epochStale is one Advance's refit record: the stale pairs in canonical
// (U, V) order, or full=true when every relationship was refit (drift bound
// exceeded or disabled), which makes results from older epochs unrepairable.
type epochStale struct {
	epoch int
	full  bool
	stale []timeseries.Pair
}

// Cache is an epoch-aware semantic result cache.  All methods are safe for
// concurrent use and safe on a nil *Cache (every operation is a no-op miss),
// so call sites need no enabled-checks.
type Cache struct {
	mu    sync.Mutex
	opts  Options
	items map[Key]*entry
	// LRU list: head is most recently used, tail least.
	head, tail *entry
	epoch      int
	ring       []epochStale
	stats      Stats
}

// New returns a cache configured by opts, or nil when opts.Enabled is false.
func New(opts Options) *Cache {
	if !opts.Enabled {
		return nil
	}
	return &Cache{opts: opts.withDefaults(), items: make(map[Key]*entry)}
}

// Lookup serves key at the given epoch from the exact or containment tier.
// The zero-allocation exact path is the first probe; containment scans peer
// entries of the same measure/method.  ok is false on a miss; the caller may
// then attempt PlanRepair, and records a final cold execution with Miss/Put.
func (c *Cache) Lookup(key Key, epoch int) (Result, Tier, bool) {
	if c == nil || !key.valid() {
		return Result{}, TierNone, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		// A query pinned to an older epoch (a stale View) can never hit: every
		// entry is kept at, or repaired to, the cache's current epoch.
		return Result{}, TierNone, false
	}
	if e, ok := c.items[key]; ok && e.epoch == epoch {
		c.touch(e)
		e.hits++
		c.stats.ExactHits++
		return Result{Pairs: e.pairs, Values: e.values}, TierExact, true
	}
	switch key.Kind {
	case plan.KindTopK:
		return c.lookupPrefix(key, epoch)
	case plan.KindInterval:
		return c.lookupContained(key, epoch)
	}
	return Result{}, TierNone, false
}

// lookupPrefix serves top-k(k′) from a cached deeper ranking of the same
// (measure, method, direction) at the same epoch.  The engine's top-k order is
// a total order on (value, pair), so the first k′ of a k ≥ k′ ranking are
// exactly the cold k′ result.  Among several candidates the shallowest is
// chosen — a deterministic rule, so the LRU touch sequence (and therefore the
// eviction order) does not depend on map iteration order.
func (c *Cache) lookupPrefix(key Key, epoch int) (Result, Tier, bool) {
	var best *entry
	for _, e := range c.items {
		if e.epoch != epoch || e.key.Kind != plan.KindTopK ||
			e.key.Measure != key.Measure || e.key.Method != key.Method ||
			e.key.Largest != key.Largest || e.key.K < key.K {
			continue
		}
		if best == nil || e.key.K < best.key.K {
			best = e
		}
	}
	if best == nil {
		return Result{}, TierNone, false
	}
	c.touch(best)
	best.hits++
	c.stats.ContainmentHits++
	n := len(best.pairs)
	if key.K < n {
		n = key.K
	}
	return Result{Pairs: best.pairs[:n:n], Values: best.values[:n:n]}, TierContained, true
}

// lookupContained serves an interval query by filtering a cached entry whose
// interval contains the query's.  Membership is decided by the stored values —
// the same values the execution methods decide membership by — and filtering
// preserves the entry's canonical result order, of which the narrower result
// is a subsequence; both together make the filtered rows byte-identical to a
// cold run.  The candidate with the fewest stored rows is chosen (cheapest
// filter, deterministic tie-break on the canonical key order).
func (c *Cache) lookupContained(key Key, epoch int) (Result, Tier, bool) {
	var best *entry
	for _, e := range c.items {
		if e.epoch != epoch || e.key.Kind != plan.KindInterval ||
			e.key.Measure != key.Measure || e.key.Method != key.Method ||
			len(e.values) != len(e.pairs) {
			continue
		}
		if !covers(e.key.Interval, key.Interval) {
			continue
		}
		if best == nil || len(e.pairs) < len(best.pairs) ||
			(len(e.pairs) == len(best.pairs) && keyLess(e.key, best.key)) {
			best = e
		}
	}
	if best == nil {
		return Result{}, TierNone, false
	}
	c.touch(best)
	best.hits++
	c.stats.ContainmentHits++
	n := 0
	for _, v := range best.values {
		if key.Interval.Contains(v) {
			n++
		}
	}
	pairs := make([]timeseries.Pair, 0, n)
	values := make([]float64, 0, n)
	for i, v := range best.values {
		if key.Interval.Contains(v) {
			pairs = append(pairs, best.pairs[i])
			values = append(values, v)
		}
	}
	return Result{Pairs: pairs, Values: values}, TierContained, true
}

// covers reports whether every value satisfying inner satisfies outer.
func covers(outer, inner interval.Interval) bool {
	if !outer.Lo.Unbounded {
		if inner.Lo.Unbounded {
			return false
		}
		switch {
		case inner.Lo.Value > outer.Lo.Value:
		case inner.Lo.Value == outer.Lo.Value && (!outer.Lo.Open || inner.Lo.Open):
		default:
			return false
		}
	}
	if !outer.Hi.Unbounded {
		if inner.Hi.Unbounded {
			return false
		}
		switch {
		case inner.Hi.Value < outer.Hi.Value:
		case inner.Hi.Value == outer.Hi.Value && (!outer.Hi.Open || inner.Hi.Open):
		default:
			return false
		}
	}
	return true
}

// keyLess is an arbitrary but deterministic total order on keys, used only to
// break ties when choosing between equivalent containment candidates.
func keyLess(a, b Key) bool {
	if a.Measure != b.Measure {
		return a.Measure < b.Measure
	}
	al, bl := a.Interval.Lo.Limit(-1), b.Interval.Lo.Limit(-1)
	if al != bl {
		return al > bl // tighter lower bound first
	}
	ah, bh := a.Interval.Hi.Limit(1), b.Interval.Hi.Limit(1)
	if ah != bh {
		return ah < bh
	}
	if a.Interval.Lo.Open != b.Interval.Lo.Open {
		return a.Interval.Lo.Open
	}
	return a.Interval.Hi.Open && !b.Interval.Hi.Open
}

// RepairPlan is the candidate bookkeeping for one delta repair: the pairs
// whose membership could have changed since the entry's epoch.  The caller
// re-evaluates exactly these pairs at the current epoch; every other pair's
// absence from the result is guaranteed by the completeness verification in
// the caller (repaired row count == the index's exact selectivity).
type RepairPlan struct {
	// Candidates is the union of the entry's rows and the stale sets of every
	// Advance since the entry's epoch, in canonical (U, V) order.
	Candidates []timeseries.Pair
	// StalePairs is how many candidates came from the stale sets (the delta's
	// size, reported through Explain and the experiment tables).
	StalePairs int
}

// PlanRepair reports whether the entry under key can be delta-repaired up to
// epoch, and if so returns its candidate set.  It does not mutate the cache;
// the caller decides repair-vs-rescan with the cost model, performs the
// re-evaluation, and installs the outcome with CommitRepair (or falls back to
// a cold run and Put).
func (c *Cache) PlanRepair(key Key, epoch int) (RepairPlan, bool) {
	if c == nil || !key.valid() || key.Kind != plan.KindInterval {
		return RepairPlan{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return RepairPlan{}, false
	}
	e, ok := c.items[key]
	if !ok || e.epoch >= epoch || len(e.values) != len(e.pairs) {
		return RepairPlan{}, false
	}
	staleSets, ok := c.staleSince(e.epoch, epoch)
	if !ok {
		return RepairPlan{}, false
	}
	stale := 0
	for _, s := range staleSets {
		stale += len(s)
	}
	lists := make([][]timeseries.Pair, 0, 1+len(staleSets))
	lists = append(append(lists, e.pairs), staleSets...)
	return RepairPlan{Candidates: mergePairs(lists, len(e.pairs)+stale), StalePairs: stale}, true
}

// mergePairs returns the union of the lists, total pairs in all, in canonical
// order without duplicates.  The entry's rows and the stale sets each come
// strictly ascending in that order, so it merges them: each step takes the
// list with the smallest head and copies out its run below every other head.
// Should a list not be strictly ascending it sorts their concatenation
// instead.
func mergePairs(lists [][]timeseries.Pair, total int) []timeseries.Pair {
	out := make([]timeseries.Pair, 0, total)
	for _, l := range lists {
		if !ascending(l) {
			for _, l := range lists {
				out = append(out, l...)
			}
			slices.SortFunc(out, timeseries.ComparePairs)
			return slices.Compact(out)
		}
	}
	for {
		least, next := -1, -1 // the smallest head, and the smallest of the others
		for i, l := range lists {
			switch {
			case len(l) == 0:
			case least < 0 || timeseries.ComparePairs(l[0], lists[least][0]) < 0:
				least, next = i, least
			case next < 0 || timeseries.ComparePairs(l[0], lists[next][0]) < 0:
				next = i
			}
		}
		if least < 0 {
			return out
		}
		l := lists[least]
		if len(out) > 0 && out[len(out)-1] == l[0] {
			lists[least] = l[1:]
			continue
		}
		run := len(l)
		if next >= 0 {
			bound := lists[next][0]
			run = 1
			for run < len(l) && timeseries.ComparePairs(l[run], bound) < 0 {
				run++
			}
		}
		out = append(out, l[:run]...)
		lists[least] = l[run:]
	}
}

// ascending reports whether l is strictly ascending in canonical order.
func ascending(l []timeseries.Pair) bool {
	for i := 1; i < len(l); i++ {
		if timeseries.ComparePairs(l[i-1], l[i]) >= 0 {
			return false
		}
	}
	return true
}

// staleSince returns the stale sets of every Advance in (from, to], or
// ok=false when the window is not fully covered by the ring or contains a
// full refit (whose stale set is "everything" — no delta to repair from).
func (c *Cache) staleSince(from, to int) ([][]timeseries.Pair, bool) {
	out := make([][]timeseries.Pair, 0, to-from)
	for ep := from + 1; ep <= to; ep++ {
		found := false
		for i := range c.ring {
			if c.ring[i].epoch == ep {
				if c.ring[i].full {
					return nil, false
				}
				out = append(out, c.ring[i].stale)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// CommitRepair installs a verified repair outcome: the entry migrates to the
// new epoch with the repaired rows, counting toward the repair tier.
// candidates is the number of pairs the caller re-evaluated.
func (c *Cache) CommitRepair(key Key, epoch int, pairs []timeseries.Pair, values []float64, candidates int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok || epoch != c.epoch {
		return
	}
	c.stats.Bytes -= e.bytes
	e.epoch = epoch
	e.pairs = pairs
	e.values = values
	e.bytes = entryBytes(pairs, values)
	e.hits++
	c.stats.Bytes += e.bytes
	c.stats.RepairHits++
	c.stats.RepairedPairs += candidates
	c.touch(e)
	c.evict()
}

// NoteRepairFallback records a repair abandoned at verification time (row
// count disagreed with the exact selectivity); the query re-ran cold.
func (c *Cache) NoteRepairFallback() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.RepairFallbacks++
	c.mu.Unlock()
}

// Miss records that a cacheable query found no reuse tier and executed cold.
func (c *Cache) Miss() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// Put stores a cold execution's result.  Results from stale epoch pins
// (queries against a View older than the cache's current epoch) are not
// stored — they would clobber newer entries.  The slices are retained by the
// cache; callers must not mutate them after.
func (c *Cache) Put(key Key, epoch int, pairs []timeseries.Pair, values []float64) {
	if c == nil || !key.valid() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return
	}
	b := entryBytes(pairs, values)
	if b > c.opts.MaxBytes {
		return
	}
	if e, ok := c.items[key]; ok {
		c.stats.Bytes -= e.bytes
		e.epoch = epoch
		e.pairs = pairs
		e.values = values
		e.bytes = b
		c.stats.Bytes += b
		c.touch(e)
		c.evict()
		return
	}
	e := &entry{key: key, epoch: epoch, pairs: pairs, values: values, bytes: b}
	c.items[key] = e
	c.stats.Entries++
	c.stats.Bytes += b
	c.pushFront(e)
	c.evict()
}

func entryBytes(pairs []timeseries.Pair, values []float64) int64 {
	return entryOverhead + 16*int64(len(pairs)) + 8*int64(len(values))
}

// OnAdvance moves the cache to a new epoch, recording the Advance's stale
// pairs (sorted canonical order; ownership transfers to the cache) or
// full=true when every relationship was refit.  Entries whose epoch has
// fallen out of the repairable window are expired eagerly — they can never
// hit again.
func (c *Cache) OnAdvance(epoch int, stale []timeseries.Pair, full bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = epoch
	c.ring = append(c.ring, epochStale{epoch: epoch, full: full, stale: stale})
	if n := len(c.ring) - c.opts.EpochHistory; n > 0 {
		c.ring = append(c.ring[:0], c.ring[n:]...)
	}
	for key, e := range c.items {
		if e.epoch == epoch {
			continue
		}
		if _, ok := c.staleSince(e.epoch, epoch); !ok {
			c.remove(e)
			delete(c.items, key)
			c.stats.Expired++
		}
	}
}

// Stats returns a snapshot of the aggregate counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// String summarizes the cache for logs.
func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("qcache{entries=%d bytes=%d exact=%d contained=%d repaired=%d misses=%d}",
		s.Entries, s.Bytes, s.ExactHits, s.ContainmentHits, s.RepairHits, s.Misses)
}

// ---- intrusive LRU list (mu held) ----

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.stats.Entries--
	c.stats.Bytes -= e.bytes
}

func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	// Unlink (without the accounting remove does), then push to front.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.pushFront(e)
}

func (c *Cache) evict() {
	for c.stats.Bytes > c.opts.MaxBytes && c.tail != nil {
		victim := c.tail
		c.remove(victim)
		delete(c.items, victim.key)
		c.stats.Evictions++
	}
}
