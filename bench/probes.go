package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"affinity/internal/affine"
	"affinity/internal/baseline"
	"affinity/internal/btree"
	"affinity/internal/cluster"
	"affinity/internal/core"
	"affinity/internal/dft"
	"affinity/internal/interval"
	"affinity/internal/kernel"
	"affinity/internal/lsfd"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/scape"
	"affinity/internal/shard"
	"affinity/internal/sketch"
	"affinity/internal/stats"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// Probes attribute time to single layers from outside: after a trial's timed
// rounds the traced run calls the layers' exported functions directly on the
// trial's final window, relationships and index, each call between two
// yardstick readings and under its own span.  They are what lets a later
// change to one layer be located before it shows end to end.  Probes run on
// probedTrials evenly spaced trials so that a traced run stays inside the run
// budget.
const probedTrials = 4

var probeSink float64 // keeps probe results alive

// prober is the state of one trial's probe block.
type prober struct {
	r    *runner
	tc   *trialCtx
	span int
	// factor is the last timed call's wall-to-reference-speed factor.
	factor float64
}

// timed runs fn reps times between two yardstick readings and records the
// normalised time of one repetition under name, scaled from milliseconds by
// unitsPerMS (1 for _ms, 1e3 for _us, 1e6 for _ns metrics).  Probes of code
// that builds or slides state are scaled like Advance.
func (p *prober) timed(name string, unitsPerMS float64, reps int, fn func() error) (float64, error) {
	return p.timedAs(streaming, name, unitsPerMS, reps, fn)
}

// timedQuery is timed for probes of code that reads state, scaled like the
// query pass.
func (p *prober) timedQuery(name string, unitsPerMS float64, reps int, fn func() error) (float64, error) {
	return p.timedAs(scanning, name, unitsPerMS, reps, fn)
}

func (p *prober) timedAs(f footprint, name string, unitsPerMS float64, reps int, fn func() error) (float64, error) {
	ref0 := p.r.refMeasure()
	s := p.r.tr.begin(p.span, name, p.tc.t, -1)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	wall := time.Since(start)
	p.r.tr.end(s)
	ref1 := p.r.refMeasure()
	p.factor = norm(time.Millisecond, f, ref0, ref1)
	v := ms(wall) * p.factor / float64(reps)
	p.r.layers.add(name, p.tc.t, v*unitsPerMS)
	return v, nil
}

func (r *runner) probes(tc *trialCtx) error {
	stride := max(1, r.w.trials/probedTrials)
	if tc.t%stride != 0 || tc.t/stride >= probedTrials {
		return nil
	}
	p := &prober{r: r, tc: tc, span: r.tr.begin(tc.span, "probes", tc.t, -1)}
	defer r.tr.end(p.span)
	d := tc.tgt.Data()
	w := r.w

	// The next window: the last round's ticks once more, transposed the way
	// Advance hands them to the layers.
	ticks := tc.in.ticks[len(tc.in.ticks)-w.slide:]
	batch := make([][]float64, d.NumSeries())
	for v := range batch {
		batch[v] = make([]float64, len(ticks))
		for i, tick := range ticks {
			batch[v][i] = tick[v]
		}
	}
	var next *timeseries.DataMatrix
	if _, err := p.timed("timeseries.slide_copy_ms", 1, 4, func() (err error) {
		next, err = d.SlideCopy(batch)
		return err
	}); err != nil {
		return err
	}

	rel, err := p.relationships(d)
	if err != nil {
		return err
	}
	staleRel, stale, err := p.symexProbes(d, next, rel)
	if err != nil {
		return err
	}
	if err := p.scapeProbes(d, next, rel, staleRel, stale); err != nil {
		return err
	}
	if err := p.btreeProbes(d); err != nil {
		return err
	}
	if err := p.kernelSketchProbes(d, next, batch); err != nil {
		return err
	}
	if err := p.cacheProbes(d, stale); err != nil {
		return err
	}
	eng, twinFactor, err := p.shardProbes(d, rel, ticks)
	if err != nil {
		return err
	}
	if err := p.engineProbes(eng, twinFactor); err != nil {
		return err
	}
	return p.queryProbes(eng)
}

// relationships returns the trial's current relationship set and probes the
// cluster layer that produced its clustering.
func (p *prober) relationships(d *timeseries.DataMatrix) (*symex.Result, error) {
	var rel *symex.Result
	switch t := p.tc.tgt.(type) {
	case *core.Engine:
		rel = t.Relationships()
	case *shard.Coordinator:
		rel = t.Relationships()
	}
	var cl *cluster.Result
	if _, err := p.timed("cluster.run_ms", 1, 1, func() (err error) {
		cl, err = cluster.Run(d, cluster.Config{K: 6, Seed: p.tc.in.seed, Parallelism: 1})
		return err
	}); err != nil {
		return nil, err
	}
	p.r.layers.addRatio("cluster.iterations_count", float64(cl.Iterations))
	return rel, nil
}

// symexProbes times the fits: a cold Compute on the frozen clustering, a full
// Refit onto the next window and a Refit of a 2 % stale set, which it returns
// for the index update probe.
func (p *prober) symexProbes(d, next *timeseries.DataMatrix, rel *symex.Result) (*symex.Result, map[timeseries.Pair]bool, error) {
	if _, err := p.timed("symex.compute_ms", 1, 1, func() error {
		_, err := symex.Compute(d, symex.Options{Clustering: rel.Clustering, CachePseudoInverse: true, Parallelism: 1})
		return err
	}); err != nil {
		return nil, nil, err
	}
	if _, err := p.timed("symex.refit_full_ms", 1, 1, func() error {
		_, _, err := symex.Refit(next, rel, symex.RefitOptions{Parallelism: 1})
		return err
	}); err != nil {
		return nil, nil, err
	}
	stale := map[timeseries.Pair]bool{}
	for i, a := range rel.AssignmentList() {
		if i%50 == 0 {
			stale[a.Pair] = true
		}
	}
	var staleRel *symex.Result
	if _, err := p.timed("symex.refit_stale_ms", 1, 1, func() (err error) {
		staleRel, _, err = symex.Refit(next, rel, symex.RefitOptions{Stale: stale, Parallelism: 1})
		return err
	}); err != nil {
		return nil, nil, err
	}

	// Per-relationship primitives over a fixed sample of relationships.
	pairs := d.AllPairs()
	var sample []*symex.Relationship
	for i := 0; i < len(pairs) && len(sample) < 128; i += max(1, len(pairs)/128) {
		if r, ok := rel.Relationship(pairs[i]); ok {
			sample = append(sample, r)
		}
	}
	if len(sample) == 0 {
		return nil, nil, fmt.Errorf("no relationships to sample")
	}
	if _, err := p.timed("affine.fit_us", 1e3/float64(len(sample)), 1, func() error {
		for _, r := range sample {
			src, err := rel.PivotMatrix(d, r.Pivot)
			if err != nil {
				return err
			}
			dst, err := d.PairMatrix(r.Pair)
			if err != nil {
				return err
			}
			if _, err := affine.Fit(src, dst); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if _, err := p.timed("lsfd.distance_us", 1e3/float64(len(sample)), 1, func() error {
		for _, r := range sample {
			src, err := rel.PivotMatrix(d, r.Pivot)
			if err != nil {
				return err
			}
			dst, err := d.PairMatrix(r.Pair)
			if err != nil {
				return err
			}
			v, err := lsfd.Distance(src, dst)
			if err != nil {
				return err
			}
			probeSink += v
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	sp := measure.Lookup(stats.Correlation)
	base := measure.Lookup(sp.Base)
	moments := make([]measure.Moment, len(sample))
	for i, r := range sample {
		common, center, err := rel.PivotColumns(d, r.Pivot)
		if err != nil {
			return nil, nil, err
		}
		terms, err := base.EvalTerms(common, center)
		if err != nil {
			return nil, nil, err
		}
		moments[i] = base.Moment(terms)
	}
	const propagateReps = 64
	if _, err := p.timedQuery("affine.propagate_ns", 1e6/float64(len(sample)), propagateReps, func() error {
		for i, r := range sample {
			v, err := r.Transform.PropagateMeasure(base, moments[i], 0, d.NumSamples())
			if err != nil {
				return err
			}
			probeSink += v
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return staleRel, stale, nil
}

// scapeProbes times the index: a full Build, the incremental Update onto the
// next window, interval and top-k scans and the planner's selectivity
// estimate.
func (p *prober) scapeProbes(d, next *timeseries.DataMatrix, rel, staleRel *symex.Result, stale map[timeseries.Pair]bool) error {
	var idx *scape.Index
	if _, err := p.timed("scape.build_ms", 1, 1, func() (err error) {
		idx, err = scape.Build(d, rel, scape.Options{Parallelism: 1})
		return err
	}); err != nil {
		return err
	}
	if _, err := p.timed("scape.update_ms", 1, 1, func() error {
		_, _, err := idx.Update(next, staleRel, stale, scape.UpdateOptions{Parallelism: 1})
		return err
	}); err != nil {
		return err
	}
	in := &passInputs{window: d}
	iv, err := in.tail(stats.Covariance, 0.05)
	if err != nil {
		return err
	}
	if _, err := p.timedQuery("scape.pair_interval_ms", 1, 4, func() error {
		_, err := idx.PairInterval(stats.Covariance, iv)
		return err
	}); err != nil {
		return err
	}
	var examined int
	const k = 100
	if _, err := p.timedQuery("scape.pair_topk_ms", 1, 4, func() (err error) {
		_, _, examined, err = idx.PairTopK(stats.Correlation, k, true)
		return err
	}); err != nil {
		return err
	}
	p.r.layers.addRatio("scape.topk_examined_per_result", float64(examined)/k)
	q := scape.PairQuery{Measure: stats.Correlation, Interval: interval.GreaterThan(0.9)}
	if _, err := p.timedQuery("scape.estimate_selectivity_us", 1e3, 64, func() error {
		_, err := idx.EstimateSelectivity(q)
		return err
	}); err != nil {
		return err
	}
	return nil
}

// btreeProbes times the container under the index on one key per pair.
func (p *prober) btreeProbes(d *timeseries.DataMatrix) error {
	n := d.NumPairs()
	keys := make([]float64, n)
	values := make([]int32, n)
	x := uint64(p.tc.in.seed) | 1
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		keys[i] = float64(x>>11) / float64(1<<53)
		values[i] = int32(i)
	}
	shuffled := append([]float64(nil), keys...)
	sort.Float64s(keys)
	perKey := 1e6 / float64(n)
	var tree *btree.Tree[int32]
	if _, err := p.timed("btree.from_sorted_ns_per_key", perKey, 1, func() error {
		tree = btree.FromSorted(keys, values)
		return nil
	}); err != nil {
		return err
	}
	grown := btree.New[int32]()
	if _, err := p.timed("btree.insert_ns", perKey, 1, func() error {
		for i, k := range shuffled {
			grown.Insert(k, int32(i))
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := p.timedQuery("btree.rank_ns", perKey, 1, func() error {
		var sum int
		for _, k := range shuffled {
			sum += tree.Rank(k)
		}
		probeSink += float64(sum)
		return nil
	}); err != nil {
		return err
	}
	const mutations = 64
	if _, err := p.timed("btree.clone_mutate_ns", 1e6/mutations, 1, func() error {
		c := tree.Clone()
		for i := 0; i < mutations; i++ {
			c.Insert(shuffled[i*(n/mutations)], -1)
		}
		probeSink += float64(c.Len())
		return nil
	}); err != nil {
		return err
	}
	_, err := p.timed("btree.delete_ns", perKey, 1, func() error {
		for i, k := range shuffled {
			want := int32(i)
			if !grown.Delete(k, func(v int32) bool { return v == want }) {
				return fmt.Errorf("key %d not found", i)
			}
		}
		return nil
	})
	return err
}

// kernelSketchProbes times the exact sweep kernels and the sketch prescreen
// in front of them.
func (p *prober) kernelSketchProbes(d, next *timeseries.DataMatrix, batch [][]float64) error {
	pairs := d.AllPairs()
	perPair := 1e6 / float64(len(pairs))
	var kern *kernel.Matrix
	if _, err := p.timed("kernel.from_data_ms", 1, 4, func() (err error) {
		kern, err = kernel.FromData(d)
		return err
	}); err != nil {
		return err
	}
	var mom *kernel.Moments
	if _, err := p.timed("kernel.moments_ms", 1, 4, func() (err error) {
		mom, err = kern.Moments()
		return err
	}); err != nil {
		return err
	}
	values := make([]float64, len(pairs))
	blocks := func(block func(mo *kernel.Moments, pairs []timeseries.Pair, out []float64)) func() error {
		return func() error {
			for lo := 0; lo < len(pairs); lo += kernel.BlockPairs {
				hi := min(lo+kernel.BlockPairs, len(pairs))
				block(mom, pairs[lo:hi], values[lo:hi])
			}
			return nil
		}
	}
	if _, err := p.timedQuery("kernel.dot_block_ns_per_pair", perPair, 1, blocks(kern.DotBlock)); err != nil {
		return err
	}
	if _, err := p.timedQuery("kernel.cov_block_ns_per_pair", perPair, 1, blocks(kern.CovBlock)); err != nil {
		return err
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	iv := interval.GreaterThan(quantile(sorted, 0.95))
	dst := make([]timeseries.Pair, 0, len(pairs))
	if _, err := p.timedQuery("kernel.compact_ns_per_pair", perPair, 4, func() error {
		dst = kernel.CompactPairs(dst[:0], pairs, values, iv)
		return nil
	}); err != nil {
		return err
	}
	naive := baseline.NewNaive(d)
	if _, _, err := naive.Kernel(); err != nil {
		return err
	}
	if _, err := p.timedQuery("baseline.pair_interval_ms", 1, 1, func() error {
		_, err := naive.PairInterval(stats.Covariance, iv)
		return err
	}); err != nil {
		return err
	}

	var set *sketch.Set
	if _, err := p.timed("sketch.build_ms", 1, 1, func() error {
		set = sketch.Build(kern, mom, sketch.Options{Enabled: true, Coefficients: 16}, 1, &sketch.Counters{})
		return nil
	}); err != nil {
		return err
	}
	nextKern, err := kernel.FromData(next)
	if err != nil {
		return err
	}
	nextMom, err := nextKern.Moments()
	if err != nil {
		return err
	}
	oldCol := func(v int) []float64 { return kern.Col(timeseries.SeriesID(v)) }
	fresh := make([]bool, d.NumSeries())
	if _, err := p.timed("sketch.advance_ms", 1, 1, func() error {
		set.Advance(nextKern, nextMom, oldCol, batch, len(batch[0]), false, fresh, 1)
		return nil
	}); err != nil {
		return err
	}
	lo, hi := make([]float64, kernel.BlockPairs), make([]float64, kernel.BlockPairs)
	if _, err := p.timedQuery("sketch.bound_block_ns_per_pair", perPair, 1, func() error {
		for at := 0; at < len(pairs); at += kernel.BlockPairs {
			chunk := pairs[at:min(at+kernel.BlockPairs, len(pairs))]
			if !set.BoundBlock(measure.Covariance, mom, chunk, lo[:len(chunk)], hi[:len(chunk)]) {
				return fmt.Errorf("covariance has no sketch bound")
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// The transform length is pinned to the stock window so the metric reads
	// the same plan (Bluestein, 720 is not a power of two) on every workload.
	const dftLen = 720
	x := make([]float64, dftLen)
	col := kern.Col(0)
	for i := range x {
		x[i] = col[i%len(col)]
	}
	pl := dft.PlanFor(dftLen)
	var spec []complex128
	_, err = p.timed("dft.transform_us", 1e3, 16, func() error {
		spec = pl.TransformInto(spec, x)
		return nil
	})
	return err
}

// cacheProbes times the result cache's own operations on entries the size of
// a 5 % interval result.
func (p *prober) cacheProbes(d *timeseries.DataMatrix, stale map[timeseries.Pair]bool) error {
	pairs := d.AllPairs()
	rows := pairs[:len(pairs)/20]
	values := make([]float64, len(rows))
	c := qcache.New(qcache.Options{Enabled: true})
	const entries = 32
	key := func(i int) qcache.Key {
		return qcache.IntervalKey(stats.Covariance, core.MethodAffine, interval.GreaterThan(float64(i)))
	}
	if _, err := p.timed("qcache.put_us", 1e3/entries, 1, func() error {
		for i := 0; i < entries; i++ {
			c.Put(key(i), 0, rows, values)
		}
		return nil
	}); err != nil {
		return err
	}
	const lookups = 4096
	if _, err := p.timedQuery("qcache.lookup_ns", 1e6/lookups, 1, func() error {
		for i := 0; i < lookups; i++ {
			if _, tier, ok := c.Lookup(key(i%entries), 0); !ok || tier != qcache.TierExact {
				return fmt.Errorf("lookup %d missed", i)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	stalePairs := make([]timeseries.Pair, 0, len(stale))
	for _, pr := range pairs {
		if stale[pr] {
			stalePairs = append(stalePairs, pr)
		}
	}
	epoch := 0
	_, err := p.timed("qcache.on_advance_us", 1e3, 8, func() error {
		epoch++
		c.OnAdvance(epoch, stalePairs, false)
		return nil
	})
	return err
}

// shardProbes builds a plain single engine and a two-shard coordinator on the
// trial's final window, feeds both the same ticks and the same queries, and
// reports the coordinator's cost relative to the engine's.  It returns the
// plain engine, and the factor its build ran at, for the probes that need one.
func (p *prober) shardProbes(d *timeseries.DataMatrix, rel *symex.Result, ticks [][]float64) (*core.Engine, float64, error) {
	cfg := p.r.w.twinConfig(p.tc.in.seed)
	var eng *core.Engine
	if _, err := p.timed("probe.twin_build_ms", 1, 1, func() (err error) {
		eng, err = core.Build(d, cfg)
		return err
	}); err != nil {
		return nil, 0, err
	}
	twinFactor := p.factor
	var pl shard.Placement
	if _, err := p.timed("shard.placement_ms", 1, 4, func() (err error) {
		pl, err = shard.ComputePlacement(rel, 2)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var most, total int
	for _, load := range pl.Loads {
		most = max(most, load)
		total += load
	}
	p.r.layers.addRatio("shard.imbalance_ratio", ratio(float64(most*len(pl.Loads)), float64(total)))

	cfg.Parallelism = workers(2)
	var coord *shard.Coordinator
	if _, err := p.timed("shard.build_ms", 1, 1, func() (err error) {
		coord, err = shard.Build(d, shard.Config{Shards: 2, Engine: cfg})
		return err
	}); err != nil {
		return nil, 0, err
	}

	in := &passInputs{window: d}
	iv, err := in.tail(stats.Covariance, 0.05)
	if err != nil {
		return nil, 0, err
	}
	queries := func(t target) func() error {
		return func() error {
			if _, err := t.Interval(stats.Covariance, iv, core.MethodIndex); err != nil {
				return err
			}
			_, err := t.TopK(stats.Correlation, 100, true, core.MethodIndex)
			return err
		}
	}
	advance := func(t target) func() error {
		return func() error {
			for _, tick := range ticks {
				if err := t.Append(tick); err != nil {
					return err
				}
			}
			_, err := t.Advance()
			return err
		}
	}
	for _, probe := range []struct {
		name string
		reps int
		on   func(t target) func() error
	}{
		{"shard.query_overhead_ratio", 4, queries},
		{"shard.advance_overhead_ratio", 1, advance},
	} {
		single, err := p.timed(probe.name+".engine", 1, probe.reps, probe.on(eng))
		if err != nil {
			return nil, 0, err
		}
		sharded, err := p.timed(probe.name+".coordinator", 1, probe.reps, probe.on(coord))
		if err != nil {
			return nil, 0, err
		}
		p.r.layers.addRatio(probe.name, ratio(sharded, single))
	}
	_, err = p.timed("par.do_overhead_us", 1e3, 64, func() error {
		return par.Do(2, 2, func(int) error { return nil })
	})
	return eng, twinFactor, err
}

// engineProbes reads what only a single engine exposes: its build phases, the
// snapshot round trip and the planner.
func (p *prober) engineProbes(eng *core.Engine, twinFactor float64) error {
	l := p.r.layers
	t := p.tc.t
	// Build phases: the workload's own engine when it is one (its BuildInfo
	// was taken right after the cold build), the plain twin otherwise.
	info, factor := p.tc.build, p.tc.setupFactor
	if info.TotalDuration == 0 {
		info, factor = eng.Info(), twinFactor
	}
	l.add("core.build_ms", t, ms(info.TotalDuration)*factor)
	l.add("core.build_cluster_ms", t, ms(info.ClusteringDuration)*factor)
	l.add("core.build_symex_ms", t, ms(info.SymexDuration)*factor)
	l.add("core.build_summary_ms", t, ms(info.SummaryDuration)*factor)
	l.add("core.build_index_ms", t, ms(info.IndexDuration)*factor)
	l.pinvHits += info.PseudoInverseHits
	l.pinvCount += info.PseudoInverseCount

	var snap bytes.Buffer
	if _, err := p.timed("core.snapshot_write_ms", 1, 1, func() error {
		snap.Reset()
		return eng.WriteSnapshot(&snap)
	}); err != nil {
		return err
	}
	restore, err := p.timed("core.snapshot_restore_ms", 1, 1, func() error {
		_, err := core.BuildFromSnapshot(eng.Data(), bytes.NewReader(snap.Bytes()), p.r.w.twinConfig(p.tc.in.seed))
		return err
	})
	if err != nil {
		return err
	}
	l.addRatio("core.restore_vs_build_ratio", ratio(restore, ms(info.TotalDuration)*factor))

	spec := plan.Interval(stats.Correlation, interval.GreaterThan(0.9))
	view := eng.View()
	_, err = p.timedQuery("plan.plan_us", 1e3, 64, func() error {
		_, err := view.Plan(spec)
		return err
	})
	return err
}

// queryProbes runs one call of every query kind on the plain engine, so that
// every core.query_* metric has samples on every workload, and measures what
// Explain and Auto cost over the calls they wrap.
func (p *prober) queryProbes(eng *core.Engine) error {
	in := &passInputs{window: eng.Data(), seed: p.tc.in.seed}
	tail, err := in.tail(stats.Covariance, 0.05)
	if err != nil {
		return err
	}
	mec, err := in.mecCalls(1, core.MethodAffine, []stats.Measure{stats.Correlation})
	if err != nil {
		return err
	}
	means, err := baseline.NewNaive(eng.Data()).Location(stats.Mean, eng.Data().IDs())
	if err != nil {
		return err
	}
	sort.Float64s(means)
	kinds := []call{
		{kind: kindInterval, layer: "index_interval", m: stats.Covariance, iv: tail, method: core.MethodIndex},
		{kind: kindTopK, layer: "index_topk", m: stats.Correlation, k: 100, largest: true, method: core.MethodIndex},
		{kind: kindInterval, layer: "index_location", m: stats.Mean, iv: interval.GreaterThan(quantile(means, 0.75)), method: core.MethodIndex},
		{kind: kindInterval, layer: "affine_interval", m: stats.Covariance, iv: tail, method: core.MethodAffine},
		{kind: kindInterval, layer: "naive_interval", m: stats.Covariance, iv: tail, method: core.MethodNaive},
		{kind: kindTopK, layer: "naive_topk", m: stats.Correlation, k: 10, largest: true, method: core.MethodNaive},
		mec[0],
		{kind: kindInterval, layer: "auto", m: stats.Covariance, iv: tail, method: core.MethodAuto},
		{kind: kindBatch, layer: "batch", method: core.MethodIndex, batch: []core.IntervalQuery{
			{Measure: stats.Covariance, Interval: tail}, {Measure: stats.Correlation, Interval: interval.GreaterThan(0.9)}}},
	}
	inPass := map[string]bool{}
	for i := range p.tc.calls {
		inPass[p.tc.calls[i].layer] = true
	}
	fixed := map[core.Method]float64{}
	var auto float64
	for i := range kinds {
		c := &kinds[i]
		name := "core.query_" + c.layer + "_ms"
		if inPass[c.layer] {
			name = "probe." + name // the pass already samples this kind
		}
		v, err := p.timedQuery(name, 1, 2, func() error {
			_, err := c.run(eng)
			return err
		})
		if err != nil {
			return err
		}
		if c.kind == kindInterval && c.m == stats.Covariance {
			if c.method == core.MethodAuto {
				auto = v
			} else {
				fixed[c.method] = v
			}
		}
	}
	best := fixed[core.MethodIndex]
	for _, v := range fixed {
		best = min(best, v)
	}
	p.r.layers.addRatio("plan.auto_regret_ratio", ratio(auto, best))

	spec := plan.Interval(stats.Covariance, tail)
	var pl plan.Plan
	explained, err := p.timedQuery("probe.explain_ms", 1, 2, func() (err error) {
		_, pl, err = eng.Explain(spec, core.MethodIndex)
		return err
	})
	if err != nil {
		return err
	}
	p.r.layers.addRatio("core.explain_overhead_ratio", ratio(explained, fixed[core.MethodIndex]))
	p.r.layers.addRatio("plan.estimate_error_ratio",
		ratio(float64(max(pl.EstimatedRows-pl.ActualRows, pl.ActualRows-pl.EstimatedRows)), float64(max(1, pl.ActualRows))))
	return nil
}
