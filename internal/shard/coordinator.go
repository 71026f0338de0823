package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"affinity/internal/core"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// Config parameterizes a sharded coordinator.
type Config struct {
	// Shards is the requested shard count (0 or 1 builds a single shard; the
	// effective count can be lower, see Placement.Shards).
	Shards int
	// Engine is the per-shard engine configuration.  Clustering and the SYMEX
	// exploration run once, globally, before the shards are built, so the
	// clustering/fit parameters here drive that global run.
	Engine core.Config
}

// coordState is one coordinator epoch: the vector of shard views captured
// behind one atomic pointer plus the global (merged) artifacts the
// coordinator plans and routes with.  Queries pin one coordState for their
// whole execution, so a multi-call scatter-gather never straddles an epoch.
type coordState struct {
	epoch int
	data  *timeseries.DataMatrix
	views []core.View
	// rel is the global relationship result: the union of the shard results,
	// equal to what a single unsharded engine holds at the same epoch.
	rel *symex.Result
	// owner maps each pivot to its shard (static across epochs).
	owner map[symex.Pivot]int
	// schedule is the order index-method interval results are merged in: the
	// shards' pivot-node lists of this epoch interleaved into the canonical
	// global node order.
	schedule []mergeRun
	// table is the planner input of a single unsharded engine at this epoch:
	// MethodAuto is resolved against the global table, so the chosen method —
	// and therefore the result bytes — are identical at every shard count.
	table plan.TableStats
	// cache is the coordinator's global result cache (nil when disabled),
	// shared across epochs like the single engine's; the shard engines run
	// cache-disabled underneath it.
	cache *qcache.Cache
}

// Coordinator partitions the pairwise state of one data window across shard
// engines (cluster-aligned placement, see ComputePlacement) and executes the
// full query surface by scatter-gather:
//
//   - interval (MET/MER) queries fan out to every shard in parallel and the
//     per-shard results are merged in a deterministic order — (U, V) pair
//     order for sweeps, canonical pivot-node order for the index method —
//     reproducing a single engine's result bytes;
//   - top-k (MEK) queries stream per-shard optimistic bounds into one global
//     k-heap: shards are polled best-first by the next SCAPE node bound, and
//     the running k-th value prunes lagging shards (the interval broadcast
//     back), with (value, pair-id) tie-breaks keeping the result identical
//     to a single engine at any shard count;
//   - MEC queries route per pair to the shard owning the pair's pivot;
//   - Append/Advance run per-shard in parallel behind a cross-shard epoch
//     barrier: the coordinator epoch is published only after every shard's
//     atomic state pointer has swapped, preserving snapshot isolation.
//
// All shards share one immutable data window; only the O(n²) pairwise state
// is partitioned.
type Coordinator struct {
	cfg       Config
	engines   []*core.Engine
	placement Placement
	// layout is the frozen global assignment layout and slots[s][i] the global
	// slot of shard s's slot i; shard refits keep their layouts frozen too,
	// so merging an epoch is one slot copy per relationship.
	layout *symex.Layout
	slots  [][]int32
	// cache is the global result cache, caching merged scatter-gather results
	// at the coordinator (Config.Engine.Cache; nil when disabled).
	cache *qcache.Cache

	cur atomic.Pointer[coordState]

	mu sync.Mutex
	// pending buffers appended ticks, n samples each, one after the other;
	// Advance truncates it and reuses its capacity.
	pending []float64
}

// Build runs clustering and SYMEX once globally, places the pivots onto
// shards, and builds one restricted engine per shard in parallel.
func Build(d *timeseries.DataMatrix, cfg Config) (*Coordinator, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	rel, err := core.ComputeRelationships(d, cfg.Engine)
	if err != nil {
		return nil, err
	}
	// Every pair must have an owning shard: the shard universes partition the
	// pairs, and pairOwner routes each pair by its assigned pivot.
	if rel.Len() != d.NumPairs() {
		return nil, fmt.Errorf("shard: %d of %d pairs carry an assignment", rel.Len(), d.NumPairs())
	}
	pl, err := ComputePlacement(rel, cfg.Shards)
	if err != nil {
		return nil, err
	}

	shardCfg := cfg.Engine
	shardCfg.AssignedPairsOnly = true
	shardCfg.Clustering = rel.Clustering
	// Result caching happens once, at the coordinator's merge layer, where a
	// hit saves the whole fan-out; per-shard caches would only duplicate the
	// merged results' memory.
	shardCfg.Cache = qcache.Options{}

	engines := make([]*core.Engine, pl.Shards)
	slots := make([][]int32, pl.Shards)
	err = par.Do(pl.Shards, pl.Shards, func(s int) error {
		restricted, owned, err := Restrict(rel, pl.Owner, s)
		if err != nil {
			return err
		}
		slots[s] = owned
		engines[s], err = core.BuildFromRelationships(d, shardCfg, restricted)
		return err
	})
	if err != nil {
		return nil, err
	}

	c := &Coordinator{
		cfg:       cfg,
		engines:   engines,
		placement: pl,
		layout:    rel.Layout(),
		slots:     slots,
		cache:     qcache.New(cfg.Engine.Cache),
	}
	views := make([]core.View, len(engines))
	for i, e := range engines {
		views[i] = e.View()
	}
	c.cur.Store(c.makeState(views, d, rel, 0))
	return c, nil
}

// makeState assembles one coordinator epoch from the captured shard views.
func (c *Coordinator) makeState(views []core.View, d *timeseries.DataMatrix,
	rel *symex.Result, epoch int) *coordState {
	return &coordState{
		epoch:    epoch,
		data:     d,
		views:    views,
		rel:      rel,
		owner:    c.placement.Owner,
		schedule: mergeSchedule(views),
		table: plan.TableStats{
			NumSeries:  d.NumSeries(),
			NumSamples: d.NumSamples(),
			NumPairs:   d.NumPairs(),
			NumPivots:  rel.Stats.NumPivots,
			// The shards index the same measures.
			Indexed: views[0].Table().Indexed,
			// Sketches are per series, built by every shard over the shared
			// window, so shard 0's statistics describe the global prescreen.
			SketchCoefficients: views[0].Table().SketchCoefficients,
			SketchAmbiguity:    views[0].Table().SketchAmbiguity,
		},
		cache: c.cache,
	}
}

// state returns the current coordinator epoch.
func (c *Coordinator) state() *coordState { return c.cur.Load() }

// NumShards returns the effective shard count.
func (c *Coordinator) NumShards() int { return len(c.engines) }

// Placement returns the pivot→shard placement (static across epochs).
func (c *Coordinator) Placement() Placement { return c.placement }

// Epoch returns the coordinator's current epoch number.
func (c *Coordinator) Epoch() int { return c.state().epoch }

// Data returns the current epoch's shared data window.
func (c *Coordinator) Data() *timeseries.DataMatrix { return c.state().data }

// Relationships returns the current epoch's global (merged) SYMEX result.
func (c *Coordinator) Relationships() *symex.Result { return c.state().rel }

// Append buffers one tick for the next Advance, mirroring core.Engine.Append.
func (c *Coordinator) Append(tick []float64) error {
	cs := c.state()
	if len(tick) != cs.data.NumSeries() {
		return fmt.Errorf("%w: got %d, want %d", core.ErrStreamShape, len(tick), cs.data.NumSeries())
	}
	for i, v := range tick {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("shard: tick value for series %d is NaN or Inf", i)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, tick...)
	return nil
}

// PendingSamples returns the number of buffered ticks.
func (c *Coordinator) PendingSamples() int {
	n := c.state().data.NumSeries()
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending) / n
}

// Advance folds the buffered ticks into a new epoch on every shard in
// parallel, then publishes the new coordinator epoch.  The window is slid and
// the tick batch transposed exactly once; each shard refits only its own
// relationships against the shared slid window (core.Engine.AdvanceShared).
//
// The cross-shard epoch barrier preserves snapshot isolation: the new
// coordState — and with it the new shard views — is stored only after every
// shard's atomic state pointer has swapped, so a concurrent query pins either
// S old views or S new views, never a mix.
func (c *Coordinator) Advance() (core.AdvanceInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs := c.state()
	n := cs.data.NumSeries()
	slide := len(c.pending) / n
	if slide == 0 {
		return core.AdvanceInfo{Epoch: cs.epoch}, nil
	}
	start := time.Now()

	batch := make([][]float64, n)
	for v := 0; v < n; v++ {
		col := make([]float64, slide)
		for t := 0; t < slide; t++ {
			col[t] = c.pending[t*n+v]
		}
		batch[v] = col
	}
	newData, err := cs.data.SlideCopy(batch)
	if err != nil {
		return core.AdvanceInfo{}, err
	}

	// A failed barrier restores every shard's previous epoch, so a failed
	// Advance leaves the coordinator where it was, like an engine's.
	fail := func(err error) (core.AdvanceInfo, error) {
		for s, e := range c.engines {
			e.Restore(cs.views[s])
		}
		return core.AdvanceInfo{}, err
	}
	infos := make([]core.AdvanceInfo, len(c.engines))
	err = par.Do(len(c.engines), len(c.engines), func(s int) error {
		info, err := c.engines[s].AdvanceShared(newData, batch)
		infos[s] = info
		return err
	})
	if err != nil {
		return fail(err)
	}

	// Barrier crossed: every shard has swapped.  Capture the new views, merge
	// the shard relationship results back into the global one, and publish.
	views := make([]core.View, len(c.engines))
	for i, e := range c.engines {
		views[i] = e.View()
	}
	merged := c.mergeRelationships(views)
	st := c.makeState(views, newData, merged, cs.epoch+1)

	// The coordinator's stale set is the union of the per-shard sets (the
	// shard universes are disjoint); a full refit on any shard makes the
	// global epoch unrepairable.  The cache learns about the transition
	// before the new epoch is published, like the single engine.
	var stale map[timeseries.Pair]bool
	fullRefit := false
	for _, info := range infos {
		if info.FullRefit {
			fullRefit = true
		}
	}
	if !fullRefit {
		stale = make(map[timeseries.Pair]bool)
		for _, info := range infos {
			for p := range info.Stale {
				stale[p] = true
			}
		}
	}
	c.cache.OnAdvance(st.epoch, core.SortedStalePairs(stale), fullRefit)

	c.cur.Store(st)
	c.pending = c.pending[:0]

	agg := core.AdvanceInfo{
		Epoch: st.epoch, Slide: slide, Duration: time.Since(start),
		Stale: stale, FullRefit: fullRefit,
	}
	for _, info := range infos {
		agg.RefitRelationships += info.RefitRelationships
		agg.ReusedRelationships += info.ReusedRelationships
		agg.RefitPivots += info.RefitPivots
	}
	return agg, nil
}

// mergeRelationships rebuilds the global relationship result from the shard
// epochs: every shard slot is copied to its global slot (the shards' slot
// sets partition the global ones), over the shared global layout.  Because
// each shard refits exactly the restriction of the global assignment list,
// the union is byte-identical to a single engine's refit of the whole list.
// The merged result shares the shard results' relationships, which pins them.
func (c *Coordinator) mergeRelationships(views []core.View) *symex.Result {
	rels := make([]*symex.Relationship, len(c.layout.Assignments()))
	for s, v := range views {
		shard := v.Relationships()
		shard.Pin()
		for i, slot := range c.slots[s] {
			rels[slot] = shard.At(i)
		}
	}
	merged := symex.NewResult(c.layout, views[0].Relationships().Clustering, rels)
	for _, v := range views {
		st := v.Relationships().Stats
		merged.Stats.PseudoInverseComputations += st.PseudoInverseComputations
		merged.Stats.PseudoInverseCacheHits += st.PseudoInverseCacheHits
	}
	return merged
}

// StreamStats aggregates the shard engines' maintenance counters: cumulative
// counters sum across shards; the Last* phase timings report the slowest
// shard (the shards run in parallel, so the maximum is the coordinator's
// critical path).
func (c *Coordinator) StreamStats() core.StreamStats {
	var agg core.StreamStats
	for i, e := range c.engines {
		s := e.StreamStats()
		if i == 0 {
			agg.Advances = s.Advances
		}
		agg.IndexUpdates += s.IndexUpdates
		agg.IndexRebuilds += s.IndexRebuilds
		agg.EntriesDeleted += s.EntriesDeleted
		agg.EntriesInserted += s.EntriesInserted
		agg.StoresShared += s.StoresShared
		agg.StoresCloned += s.StoresCloned
		agg.StoresRebuilt += s.StoresRebuilt
		agg.ScratchGets += s.ScratchGets
		agg.ScratchHits += s.ScratchHits
		agg.SketchRebuilt += s.SketchRebuilt
		agg.SketchSlid += s.SketchSlid
		agg.SketchSweeps += s.SketchSweeps
		agg.SketchDefiniteIn += s.SketchDefiniteIn
		agg.SketchDefiniteOut += s.SketchDefiniteOut
		agg.SketchAmbiguous += s.SketchAmbiguous
		agg.SketchTopKSkippedPairs += s.SketchTopKSkippedPairs
		agg.SweepBaseFills += s.SweepBaseFills
		agg.SweepBaseReuses += s.SweepBaseReuses
		agg.MomentFills += s.MomentFills
		agg.MomentSweeps += s.MomentSweeps
		agg.MomentRefinedPairs += s.MomentRefinedPairs
		if s.LastStaleFraction > agg.LastStaleFraction {
			agg.LastStaleFraction = s.LastStaleFraction
		}
		if s.LastSlidePhase > agg.LastSlidePhase {
			agg.LastSlidePhase = s.LastSlidePhase
		}
		if s.LastRefitPhase > agg.LastRefitPhase {
			agg.LastRefitPhase = s.LastRefitPhase
		}
		if s.LastIndexPhase > agg.LastIndexPhase {
			agg.LastIndexPhase = s.LastIndexPhase
		}
		if s.LastPlannerPhase > agg.LastPlannerPhase {
			agg.LastPlannerPhase = s.LastPlannerPhase
		}
	}
	// The result cache lives on the coordinator, not the shards (whose own
	// caches are disabled), so its counters come from here.
	cst := c.cache.Stats()
	agg.CacheExactHits = cst.ExactHits
	agg.CacheContainmentHits = cst.ContainmentHits
	agg.CacheRepairHits = cst.RepairHits
	agg.CacheMisses = cst.Misses
	agg.CacheRepairedPairs = cst.RepairedPairs
	agg.CacheRepairFallbacks = cst.RepairFallbacks
	agg.CacheEvictions = cst.Evictions
	agg.CacheExpired = cst.Expired
	agg.CacheEntries = cst.Entries
	agg.CacheBytes = cst.Bytes
	return agg
}
