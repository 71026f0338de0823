package qcache

import (
	"math/rand"
	"slices"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/timeseries"
)

func pair(u, v int) timeseries.Pair {
	return timeseries.Pair{U: timeseries.SeriesID(u), V: timeseries.SeriesID(v)}
}

func enabled(maxBytes int64, history int) *Cache {
	return New(Options{Enabled: true, MaxBytes: maxBytes, EpochHistory: history})
}

func TestDisabledAndNilCacheAreNoOps(t *testing.T) {
	if c := New(Options{}); c != nil {
		t.Fatalf("New with Enabled=false = %v, want nil", c)
	}
	var c *Cache
	key := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(1))
	if _, _, ok := c.Lookup(key, 0); ok {
		t.Fatal("nil cache Lookup reported a hit")
	}
	if _, ok := c.PlanRepair(key, 1); ok {
		t.Fatal("nil cache PlanRepair reported a plan")
	}
	// None of these may panic.
	c.Put(key, 0, nil, nil)
	c.Miss()
	c.NoteRepairFallback()
	c.CommitRepair(key, 1, nil, nil, 0)
	c.OnAdvance(1, nil, true)
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache Stats = %+v, want zero", s)
	}
}

func TestExactHitRoundTrip(t *testing.T) {
	c := enabled(0, 0)
	key := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(0.5))
	pairs := []timeseries.Pair{pair(0, 1), pair(0, 2)}
	values := []float64{0.7, 0.9}
	c.Put(key, 0, pairs, values)

	// The same predicate spelled differently must land on the same entry.
	alias := IntervalKey(measure.Covariance, plan.MethodAffine,
		interval.New(interval.Closed(0.5), interval.Unbounded()))
	r, tier, ok := c.Lookup(alias, 0)
	if !ok || tier != TierExact {
		t.Fatalf("Lookup = tier %v ok %v, want exact hit", tier, ok)
	}
	if len(r.Pairs) != 2 || r.Pairs[0] != pair(0, 1) || r.Values[1] != 0.9 {
		t.Fatalf("Lookup returned %+v", r)
	}
	if s := c.Stats(); s.ExactHits != 1 || s.Entries != 1 {
		t.Fatalf("Stats = %+v, want 1 exact hit, 1 entry", s)
	}
}

func TestExactHitIsAllocationFree(t *testing.T) {
	c := enabled(0, 0)
	key := TopKKey(measure.Correlation, plan.MethodIndex, 5, true)
	c.Put(key, 0, []timeseries.Pair{pair(1, 2)}, []float64{0.99})
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.Lookup(key, 0); !ok {
			t.Fatal("lost the entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("exact hit allocates %v times, want 0", allocs)
	}
}

func TestEpochGuards(t *testing.T) {
	c := enabled(0, 0)
	key := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(0))
	// A store from a stale epoch pin must be dropped.
	c.OnAdvance(1, nil, true)
	c.Put(key, 0, []timeseries.Pair{pair(0, 1)}, []float64{1})
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("stale Put stored an entry: %+v", s)
	}
	c.Put(key, 1, []timeseries.Pair{pair(0, 1)}, []float64{1})
	// A query pinned to an older epoch must miss.
	if _, _, ok := c.Lookup(key, 0); ok {
		t.Fatal("stale-epoch Lookup hit")
	}
	if _, _, ok := c.Lookup(key, 1); !ok {
		t.Fatal("current-epoch Lookup missed")
	}
}

func TestNaNKeysRejected(t *testing.T) {
	c := enabled(0, 0)
	nan := interval.New(interval.Closed(0), interval.Open(nan64()))
	key := IntervalKey(measure.Covariance, plan.MethodAffine, nan)
	c.Put(key, 0, []timeseries.Pair{pair(0, 1)}, []float64{1})
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("NaN-endpoint key was stored: %+v", s)
	}
	if k := TopKKey(measure.Covariance, plan.MethodAffine, 0, true); k.valid() {
		t.Fatal("k=0 key reported valid")
	}
}

func nan64() float64 {
	var zero float64
	return zero / zero
}

func TestTopKPrefix(t *testing.T) {
	c := enabled(0, 0)
	deep := TopKKey(measure.Correlation, plan.MethodAffine, 4, true)
	pairs := []timeseries.Pair{pair(0, 1), pair(0, 2), pair(1, 2), pair(1, 3)}
	values := []float64{0.9, 0.8, 0.7, 0.6}
	c.Put(deep, 0, pairs, values)

	shallow := TopKKey(measure.Correlation, plan.MethodAffine, 2, true)
	r, tier, ok := c.Lookup(shallow, 0)
	if !ok || tier != TierContained {
		t.Fatalf("prefix lookup = tier %v ok %v", tier, ok)
	}
	if len(r.Pairs) != 2 || r.Pairs[1] != pair(0, 2) || r.Values[1] != 0.8 {
		t.Fatalf("prefix = %+v", r)
	}
	// Returned prefix slices must not expose the deeper tail through append.
	if cap(r.Pairs) != 2 || cap(r.Values) != 2 {
		t.Fatalf("prefix caps = %d/%d, want 2/2", cap(r.Pairs), cap(r.Values))
	}
	// Opposite direction must not match.
	if _, _, ok := c.Lookup(TopKKey(measure.Correlation, plan.MethodAffine, 2, false), 0); ok {
		t.Fatal("opposite-direction top-k hit")
	}
	// Deeper than cached must not match.
	if _, _, ok := c.Lookup(TopKKey(measure.Correlation, plan.MethodAffine, 5, true), 0); ok {
		t.Fatal("deeper top-k hit")
	}
}

func TestIntervalContainment(t *testing.T) {
	c := enabled(0, 0)
	wide := IntervalKey(measure.Covariance, plan.MethodAffine, interval.Between(0, 1))
	pairs := []timeseries.Pair{pair(0, 1), pair(0, 2), pair(1, 2)}
	values := []float64{0.1, 0.5, 0.9}
	c.Put(wide, 0, pairs, values)

	narrow := IntervalKey(measure.Covariance, plan.MethodAffine, interval.Between(0.4, 0.95))
	r, tier, ok := c.Lookup(narrow, 0)
	if !ok || tier != TierContained {
		t.Fatalf("containment lookup = tier %v ok %v", tier, ok)
	}
	if len(r.Pairs) != 2 || r.Pairs[0] != pair(0, 2) || r.Pairs[1] != pair(1, 2) {
		t.Fatalf("filtered rows = %+v", r.Pairs)
	}
	// A query not contained in the entry must miss: same endpoints but the
	// entry's closed bound cannot serve values its open query would include.
	outside := IntervalKey(measure.Covariance, plan.MethodAffine, interval.Between(-0.5, 0.5))
	if _, _, ok := c.Lookup(outside, 0); ok {
		t.Fatal("non-contained interval hit")
	}
	// Different method must miss (method is part of the key identity).
	other := IntervalKey(measure.Covariance, plan.MethodNaive, interval.Between(0.4, 0.95))
	if _, _, ok := c.Lookup(other, 0); ok {
		t.Fatal("cross-method containment hit")
	}
}

func TestCoversOpenClosedEdges(t *testing.T) {
	cases := []struct {
		outer, inner string
		want         bool
	}{
		{"[0, 1]", "[0, 1]", true},
		{"[0, 1]", "(0, 1)", true},
		{"(0, 1)", "[0, 1]", false},
		{"(0, 1)", "(0, 1)", true},
		{"[0, 1]", "[0.5, 2]", false},
		{">= 0.5", "> 0.5", true},
		{"> 0.5", ">= 0.5", false},
		{"<= 1", "< 1", true},
	}
	for _, tc := range cases {
		outer, err := interval.Parse(tc.outer)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := interval.Parse(tc.inner)
		if err != nil {
			t.Fatal(err)
		}
		if got := covers(outer.Canonical(), inner.Canonical()); got != tc.want {
			t.Errorf("covers(%q, %q) = %v, want %v", tc.outer, tc.inner, got, tc.want)
		}
	}
}

func TestLRUEvictionIsDeterministic(t *testing.T) {
	// Budget for roughly two entries: each entry is 128 + 16 + 8 = 152 bytes.
	// The intervals are disjoint so no lookup below can fall through to the
	// containment tier and mask an eviction.
	c := enabled(330, 0)
	k1 := IntervalKey(measure.Covariance, plan.MethodAffine, interval.Between(0, 1))
	k2 := IntervalKey(measure.Covariance, plan.MethodAffine, interval.Between(2, 3))
	k3 := IntervalKey(measure.Covariance, plan.MethodAffine, interval.Between(4, 5))
	c.Put(k1, 0, []timeseries.Pair{pair(0, 1)}, []float64{1})
	c.Put(k2, 0, []timeseries.Pair{pair(0, 2)}, []float64{2})
	// Touch k1 so k2 becomes the LRU victim.
	if _, _, ok := c.Lookup(k1, 0); !ok {
		t.Fatal("k1 missed")
	}
	c.Put(k3, 0, []timeseries.Pair{pair(0, 3)}, []float64{3})

	if _, _, ok := c.Lookup(k2, 0); ok {
		t.Fatal("LRU victim k2 still cached")
	}
	if _, _, ok := c.Lookup(k1, 0); !ok {
		t.Fatal("recently used k1 evicted")
	}
	if _, _, ok := c.Lookup(k3, 0); !ok {
		t.Fatal("new entry k3 evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("Stats = %+v, want 1 eviction, 2 entries", s)
	}
	if s.Bytes > 330 {
		t.Fatalf("bytes %d exceed budget", s.Bytes)
	}
}

func TestOversizeResultNotStored(t *testing.T) {
	c := enabled(200, 0)
	pairs := make([]timeseries.Pair, 100)
	values := make([]float64, 100)
	c.Put(IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(0)), 0, pairs, values)
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversize entry stored: %+v", s)
	}
}

func TestPlanRepairCandidates(t *testing.T) {
	c := enabled(0, 4)
	key := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(0.5))
	c.Put(key, 0, []timeseries.Pair{pair(1, 3), pair(2, 4)}, []float64{0.6, 0.7})

	c.OnAdvance(1, []timeseries.Pair{pair(0, 1), pair(2, 4)}, false)
	c.OnAdvance(2, []timeseries.Pair{pair(0, 2)}, false)

	rp, ok := c.PlanRepair(key, 2)
	if !ok {
		t.Fatal("PlanRepair not possible")
	}
	want := []timeseries.Pair{pair(0, 1), pair(0, 2), pair(1, 3), pair(2, 4)}
	if len(rp.Candidates) != len(want) {
		t.Fatalf("candidates = %v, want %v", rp.Candidates, want)
	}
	for i, p := range want {
		if rp.Candidates[i] != p {
			t.Fatalf("candidates = %v, want %v (sorted, deduped)", rp.Candidates, want)
		}
	}
	if rp.StalePairs != 3 {
		t.Fatalf("StalePairs = %d, want 3", rp.StalePairs)
	}

	// Committing migrates the entry to the new epoch and the exact tier
	// serves it there.
	c.CommitRepair(key, 2, []timeseries.Pair{pair(1, 3)}, []float64{0.8}, len(rp.Candidates))
	r, tier, ok := c.Lookup(key, 2)
	if !ok || tier != TierExact || len(r.Pairs) != 1 {
		t.Fatalf("post-repair lookup = %+v tier %v ok %v", r, tier, ok)
	}
	s := c.Stats()
	if s.RepairHits != 1 || s.RepairedPairs != 4 {
		t.Fatalf("Stats = %+v, want 1 repair hit, 4 repaired pairs", s)
	}
}

// TestPlanRepairCandidateOrder pins the candidate list where entries tie: the
// union of the entry's rows and the stale sets comes back in canonical (U, V)
// order with every duplicate — within a set, across sets, against the rows —
// collapsed to one.
func TestPlanRepairCandidateOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rows  []timeseries.Pair
		stale [][]timeseries.Pair
		want  []timeseries.Pair
	}{
		{"disjoint, reversed", []timeseries.Pair{pair(5, 6), pair(3, 4)}, [][]timeseries.Pair{{pair(1, 2)}, {pair(0, 9)}},
			[]timeseries.Pair{pair(0, 9), pair(1, 2), pair(3, 4), pair(5, 6)}},
		{"one row of pairs", []timeseries.Pair{pair(2, 9), pair(2, 3)}, [][]timeseries.Pair{{pair(2, 5)}, {pair(2, 4)}},
			[]timeseries.Pair{pair(2, 3), pair(2, 4), pair(2, 5), pair(2, 9)}},
		{"duplicates everywhere", []timeseries.Pair{pair(1, 3), pair(0, 2)}, [][]timeseries.Pair{{pair(1, 3), pair(0, 2)}, {pair(1, 3), pair(0, 1)}},
			[]timeseries.Pair{pair(0, 1), pair(0, 2), pair(1, 3)}},
		{"no rows", nil, [][]timeseries.Pair{{pair(4, 5), pair(0, 7)}, {}},
			[]timeseries.Pair{pair(0, 7), pair(4, 5)}},
	} {
		c := enabled(0, 4)
		key := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(0.5))
		c.Put(key, 0, tc.rows, make([]float64, len(tc.rows)))
		stale := 0
		for i, set := range tc.stale {
			c.OnAdvance(i+1, set, false)
			stale += len(set)
		}
		rp, ok := c.PlanRepair(key, len(tc.stale))
		if !ok {
			t.Fatalf("%s: PlanRepair not possible", tc.name)
		}
		if !slices.Equal(rp.Candidates, tc.want) || rp.StalePairs != stale {
			t.Errorf("%s: candidates %v (%d stale), want %v (%d stale)", tc.name, rp.Candidates, rp.StalePairs, tc.want, stale)
		}
	}
}

func TestPlanRepairRefusesFullRefitWindow(t *testing.T) {
	c := enabled(0, 4)
	key := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(0.5))
	c.Put(key, 0, []timeseries.Pair{pair(1, 3)}, []float64{0.6})
	c.OnAdvance(1, nil, true)
	if _, ok := c.PlanRepair(key, 1); ok {
		t.Fatal("PlanRepair crossed a full-refit epoch")
	}
	// The entry is unrepairable and must have been expired eagerly.
	if s := c.Stats(); s.Entries != 0 || s.Expired != 1 {
		t.Fatalf("Stats = %+v, want the entry expired", s)
	}
}

func TestRingWindowExpiry(t *testing.T) {
	c := enabled(0, 2)
	key := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(0.5))
	c.Put(key, 0, []timeseries.Pair{pair(1, 3)}, []float64{0.6})
	c.OnAdvance(1, []timeseries.Pair{}, false)
	c.OnAdvance(2, []timeseries.Pair{}, false)
	if _, ok := c.PlanRepair(key, 2); !ok {
		t.Fatal("entry within the window not repairable")
	}
	// Epoch 1's stale set falls out of the 2-epoch ring; the entry (epoch 0)
	// can no longer prove contiguous coverage and must expire.
	c.OnAdvance(3, []timeseries.Pair{}, false)
	if s := c.Stats(); s.Entries != 0 || s.Expired != 1 {
		t.Fatalf("Stats = %+v, want the out-of-window entry expired", s)
	}
}

func TestTopKEntriesAreNotRepairable(t *testing.T) {
	c := enabled(0, 4)
	key := TopKKey(measure.Covariance, plan.MethodAffine, 3, true)
	c.Put(key, 0, []timeseries.Pair{pair(1, 3)}, []float64{0.6})
	c.OnAdvance(1, []timeseries.Pair{}, false)
	if _, ok := c.PlanRepair(key, 1); ok {
		t.Fatal("top-k entry planned a repair")
	}
}

func TestMissCounter(t *testing.T) {
	c := enabled(0, 0)
	c.Miss()
	c.Miss()
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("Misses = %d, want 2", s.Misses)
	}
}

func TestEntryStatsOrder(t *testing.T) {
	c := enabled(0, 0)
	k1 := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(1))
	k2 := IntervalKey(measure.Covariance, plan.MethodAffine, interval.AtLeast(2))
	c.Put(k1, 0, []timeseries.Pair{pair(0, 1)}, []float64{1})
	c.Put(k2, 0, []timeseries.Pair{pair(0, 2)}, []float64{2})
	c.Lookup(k1, 0)
	var keys []Key
	for e := c.head; e != nil; e = e.next {
		keys = append(keys, e.key)
	}
	if len(keys) != 2 || keys[0] != k1 || keys[1] != k2 {
		t.Fatalf("LRU order = %+v, want k1 (MRU) first", keys)
	}
	if c.head.hits != 1 || len(c.head.pairs) != 1 {
		t.Fatalf("MRU entry: %d hits, %d rows", c.head.hits, len(c.head.pairs))
	}
}

// sortUnion is the candidate list PlanRepair built before it merged: the
// concatenation of the lists sorted in canonical order, duplicates dropped.
func sortUnion(lists [][]timeseries.Pair) []timeseries.Pair {
	var all []timeseries.Pair
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.SortFunc(all, timeseries.ComparePairs)
	return slices.Compact(all)
}

// The merge of the entry's rows with the stale sets is the sorted, deduplicated
// union on random inputs: overlapping lists, empty lists, a single list, and
// lists that are not strictly ascending (the sorting fallback).
func TestMergePairsMatchesSortUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 2000 {
		n := 2 + rng.Intn(12)
		lists := make([][]timeseries.Pair, rng.Intn(10))
		total := 0
		for i := range lists {
			seen := map[timeseries.Pair]bool{}
			for range rng.Intn(20) {
				u := rng.Intn(n - 1)
				seen[pair(u, u+1+rng.Intn(n-1-u))] = true
			}
			for p := range seen {
				lists[i] = append(lists[i], p)
			}
			if trial%5 != 0 {
				slices.SortFunc(lists[i], timeseries.ComparePairs)
			} else if len(lists[i]) > 0 && rng.Intn(2) == 0 {
				lists[i] = append(lists[i], lists[i][0]) // a repeat
			}
			total += len(lists[i])
		}
		want := sortUnion(lists)
		got := mergePairs(slices.Clone(lists), total)
		if !slices.Equal(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Fatalf("trial %d: merge of %v = %v, want %v", trial, lists, got, want)
		}
	}
}

// The sort and the merge on the candidate lists of a repair at the serving
// workload's shape: a few thousand entry rows and a handful of small stale
// sets.
func BenchmarkRepairCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 168
	draw := func(size int) []timeseries.Pair {
		seen := map[timeseries.Pair]bool{}
		for len(seen) < size {
			u := rng.Intn(n - 1)
			seen[pair(u, u+1+rng.Intn(n-1-u))] = true
		}
		l := make([]timeseries.Pair, 0, size)
		for p := range seen {
			l = append(l, p)
		}
		slices.SortFunc(l, timeseries.ComparePairs)
		return l
	}
	lists := [][]timeseries.Pair{draw(3000)}
	total := 3000
	for range 4 {
		lists = append(lists, draw(150))
		total += 150
	}
	b.Run("sort", func(b *testing.B) {
		for range b.N {
			sortUnion(lists)
		}
	})
	b.Run("merge", func(b *testing.B) {
		heads := make([][]timeseries.Pair, len(lists))
		for range b.N {
			copy(heads, lists)
			mergePairs(heads, total)
		}
	})
}
