package shard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/sketch"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

func buildFixturePair(t *testing.T, shards int, cfg core.Config) (*core.Engine, *Coordinator) {
	t.Helper()
	fx := makeShardFixture(t, 24, 90, 0, 7)
	e, err := core.Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cFx := makeShardFixture(t, 24, 90, 0, 7)
	c, err := Build(cFx.window, Config{Shards: shards, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

func TestComputePlacement(t *testing.T) {
	fx := makeShardFixture(t, 24, 90, 0, 7)
	rel, err := core.ComputeRelationships(fx.window, core.Config{Clusters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	pl, err := ComputePlacement(rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Shards < 1 || pl.Shards > 3 {
		t.Fatalf("effective shards %d", pl.Shards)
	}
	// Every assigned pivot must have an owner in range.
	for _, a := range rel.AssignmentList() {
		s, ok := pl.Owner[a.Pivot]
		if !ok {
			t.Fatalf("pivot %v unplaced", a.Pivot)
		}
		if s < 0 || s >= pl.Shards {
			t.Fatalf("pivot %v on shard %d of %d", a.Pivot, s, pl.Shards)
		}
	}
	// Placement is deterministic.
	pl2, err := ComputePlacement(rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", pl.Loads) != fmt.Sprintf("%v", pl2.Loads) {
		t.Fatalf("loads diverged: %v vs %v", pl.Loads, pl2.Loads)
	}
	for p, s := range pl.Owner {
		if pl2.Owner[p] != s {
			t.Fatalf("owner of %v diverged", p)
		}
	}
	// Without splits, cluster alignment holds: pivots of one cluster share a
	// shard.
	if pl.SplitClusters == 0 {
		byCluster := make(map[int]int)
		for p, s := range pl.Owner {
			if prev, ok := byCluster[p.Cluster]; ok && prev != s {
				t.Fatalf("cluster %d spans shards %d and %d", p.Cluster, prev, s)
			}
			byCluster[p.Cluster] = s
		}
	}

	// More shards than clusters forces the oversized-cluster fallback (the
	// budget shrinks below every cluster's weight) or a lowered count; either
	// way every shard must end up owning work.
	plWide, err := ComputePlacement(rel, 16)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[int]bool)
	for _, s := range plWide.Owner {
		owned[s] = true
	}
	if len(owned) != plWide.Shards {
		t.Fatalf("only %d of %d shards own pivots", len(owned), plWide.Shards)
	}
	if plWide.Shards > 4 && plWide.SplitClusters == 0 {
		t.Fatalf("expected cluster splits at S=%d with 4 clusters", plWide.Shards)
	}

	// Restriction partitions the assignment list exactly.
	total := 0
	seen := make(map[timeseries.Pair]bool)
	for s := 0; s < pl.Shards; s++ {
		r, slots, err := Restrict(rel, pl.Owner, s)
		if err != nil {
			t.Fatal(err)
		}
		total += len(r.AssignmentList())
		for i, a := range r.AssignmentList() {
			if seen[a.Pair] {
				t.Fatalf("pair %v on two shards", a.Pair)
			}
			seen[a.Pair] = true
			if rel.AssignmentList()[slots[i]] != a || rel.At(int(slots[i])) != r.At(i) {
				t.Fatalf("shard %d slot %d does not mirror global slot %d", s, i, slots[i])
			}
		}
		if r.Len() == 0 {
			t.Fatalf("shard %d has no relationships", s)
		}
		if r.Clustering != rel.Clustering {
			t.Fatal("restriction copied the clustering")
		}
	}
	if total != len(rel.AssignmentList()) {
		t.Fatalf("restrictions cover %d of %d assignments", total, len(rel.AssignmentList()))
	}

	// Error paths.
	if _, err := ComputePlacement(nil, 2); err == nil {
		t.Fatal("accepted nil result")
	}
	if _, err := ComputePlacement(rel, 0); err == nil {
		t.Fatal("accepted zero shards")
	}
}

// TestCoordinatorExplain pins what a coordinator epoch reports when core.Run
// is asked for plans — the explain path — against the single engine's
// Explain: the global plan is priced on the global table and its ActualRows
// count the merged result, and with the sketch prescreen on, the classified
// and refined pair counts of a naive sweep sum over the shards to the single
// engine's.
func TestCoordinatorExplain(t *testing.T) {
	cfg := core.Config{Clusters: 4, Seed: 5, Parallelism: 2}
	e, c := buildFixturePair(t, 3, cfg)
	explain := func(c *Coordinator, spec plan.QuerySpec, method core.Method) (core.QueryResult, plan.Plan) {
		t.Helper()
		out, plans, err := core.Run(c.state(), []plan.QuerySpec{spec}, method, true)
		if err != nil {
			t.Fatal(err)
		}
		return out[0], plans[0]
	}

	spec := plan.Interval(measure.Correlation, interval.GreaterThan(0.25))
	res, cp := explain(c, spec, core.MethodIndex)
	if cp.Method != core.MethodIndex {
		t.Fatalf("plan method %v", cp.Method)
	}
	if cp.ActualRows != res.Size() {
		t.Fatalf("ActualRows %d, result %d", cp.ActualRows, res.Size())
	}
	_, ep, err := e.Explain(spec, core.MethodIndex)
	if err != nil {
		t.Fatal(err)
	}
	cp.Duration, ep.Duration = 0, 0
	if fmt.Sprintf("%+v", cp) != fmt.Sprintf("%+v", ep) {
		t.Fatalf("coordinator plan %+v != engine plan %+v", cp, ep)
	}

	// The sketched query is on cosine, a dot-product base measure: at the
	// build epoch, a full fit, a correlation query reads the shards' naive
	// covariance columns instead of the prescreen.
	skCfg := cfg
	skCfg.Sketch = sketch.Options{Enabled: true, Coefficients: 4}
	se, sc := buildFixturePair(t, 3, skCfg)
	// The endpoint is one pair's exact value, so at least that pair stays
	// ambiguous under every bound provider and reaches the kernels.
	mat, err := se.ComputePairwise(measure.Cosine, []timeseries.SeriesID{0, 1}, core.MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	endpoint := mat[0][1]
	skSpec := plan.Interval(measure.Cosine, interval.GreaterThan(endpoint))
	_, sep, err := se.Explain(skSpec, core.MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	_, scp := explain(sc, skSpec, core.MethodNaive)
	if sep.SketchedPairs != se.Data().NumPairs() || sep.SketchRefinedPairs == 0 {
		t.Fatalf("engine sketch actuals %d/%d", sep.SketchedPairs, sep.SketchRefinedPairs)
	}
	scp.Duration, sep.Duration = 0, 0
	if fmt.Sprintf("%+v", scp) != fmt.Sprintf("%+v", sep) {
		t.Fatalf("sketched coordinator plan %+v != engine plan %+v", scp, sep)
	}
}

func TestCoordinatorStreaming(t *testing.T) {
	cfg := core.Config{Clusters: 4, Seed: 5, Parallelism: 2}
	fx := makeShardFixture(t, 24, 90, 10, 7)
	c, err := Build(fx.window, Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// No-op advance.
	info, err := c.Advance()
	if err != nil || info.Epoch != 0 || info.Slide != 0 {
		t.Fatalf("no-op advance: %+v, %v", info, err)
	}

	// Shape errors.
	if err := c.Append([]float64{1, 2}); !errors.Is(err, core.ErrStreamShape) {
		t.Fatalf("short tick: %v", err)
	}
	bad := make([]float64, 24)
	bad[3] = math.NaN()
	if err := c.Append(bad); err == nil {
		t.Fatal("accepted NaN tick")
	}

	for _, tick := range fx.ticks[:5] {
		if err := c.Append(tick); err != nil {
			t.Fatal(err)
		}
	}
	if c.PendingSamples() != 5 {
		t.Fatalf("pending %d", c.PendingSamples())
	}
	info, err = c.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Slide != 5 {
		t.Fatalf("advance info %+v", info)
	}
	if info.RefitRelationships+info.ReusedRelationships == 0 {
		t.Fatal("advance touched no relationships")
	}
	if c.PendingSamples() != 0 {
		t.Fatalf("pending after advance: %d", c.PendingSamples())
	}
	if c.Epoch() != 1 || c.Data() == nil || c.Relationships() == nil {
		t.Fatal("epoch accessors inconsistent after advance")
	}

	ss := c.StreamStats()
	if ss.Advances != 1 {
		t.Fatalf("Advances %d", ss.Advances)
	}
	if ss.IndexUpdates+ss.IndexRebuilds < c.NumShards() {
		t.Fatalf("index maintenance count %d below shard count", ss.IndexUpdates+ss.IndexRebuilds)
	}
	if ss.LastSlidePhase <= 0 {
		t.Fatal("phase timings not aggregated")
	}

	// The pair-moment column belongs to naive sweeps: index and affine
	// queries materialise it on no shard, the first naive sweep materialises
	// it on every shard (each over its own pair universe), and the Advance
	// that follows carries it — AdvanceShared is a shard's whole part in that.
	// The affine sweep fills every shard's covariance base column instead.
	// The naive sweeps are on cosine: these epochs are full refits, where a
	// covariance-base naive sweep reads the fit's column and no bound.
	for _, method := range []core.Method{core.MethodIndex, core.MethodAffine} {
		if _, err := c.Interval(measure.Correlation, interval.GreaterThan(0.5), method); err != nil {
			t.Fatal(err)
		}
	}
	if ss := c.StreamStats(); ss.MomentFills != 0 || ss.MomentSweeps != 0 {
		t.Fatalf("%d moment fills, %d sweeps before any naive sweep", ss.MomentFills, ss.MomentSweeps)
	}
	if ss := c.StreamStats(); ss.SweepBaseFills != int64(c.NumShards()) {
		t.Fatalf("%d base-column fills after one affine sweep over %d shards", ss.SweepBaseFills, c.NumShards())
	}
	for round := 0; round < 2; round++ {
		if _, err := c.Interval(measure.Cosine, interval.GreaterThan(0.5), core.MethodNaive); err != nil {
			t.Fatal(err)
		}
		if ss, shards := c.StreamStats(), int64(c.NumShards()); ss.MomentFills != shards || ss.MomentSweeps != int64(round+1)*shards {
			t.Fatalf("round %d: %d moment fills, %d sweeps over %d shards", round, ss.MomentFills, ss.MomentSweeps, shards)
		}
		for _, tick := range fx.ticks[5+round : 6+round] {
			if err := c.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Advance(); err != nil {
			t.Fatal(err)
		}
	}

	// Streamed with the refit-all default, a coordinator at every S and P
	// answers the whole determinism battery bit for bit like a cold single
	// engine built on the slid window over the frozen clustering.
	cold := core.Config{Clusters: 4, Seed: 5}
	runShardDeterminismSplit(t, cold, cold, 1, true)
}

// TestIndexScatterFollowsTheEpoch streams a coordinator beside a single
// engine.  At every epoch the merge schedule must be the canonical
// interleaving of exactly the nodes the shard indexes hold, and the batched
// index scatter and the mixed batch must equal the single engine.
func TestIndexScatterFollowsTheEpoch(t *testing.T) {
	const rounds, slide = 3, 5
	cfg := core.Config{Clusters: 4, Seed: 5, Parallelism: 2}
	fx := makeShardFixture(t, 20, 90, rounds*slide, 7)
	e, err := core.Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cFx := makeShardFixture(t, 20, 90, rounds*slide, 7)
	c, err := Build(cFx.window, Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; ; epoch++ {
		cs := c.state()
		// The schedule visits every shard's nodes once, in shard order, and
		// the pivots it visits ascend strictly in (Common, Cluster) order.
		heads := make([]int32, len(cs.views))
		var last *symex.Pivot
		for _, run := range cs.schedule {
			if run.lo != heads[run.shard] || run.hi <= run.lo {
				t.Fatalf("epoch %d: run %+v does not continue shard %d at node %d", epoch, run, run.shard, heads[run.shard])
			}
			for n := run.lo; n < run.hi; n++ {
				p := cs.views[run.shard].Index().NodePivot(int(n))
				if last != nil && !pivotBefore(*last, p) {
					t.Fatalf("epoch %d: schedule visits %v after %v", epoch, p, *last)
				}
				last = &p
			}
			heads[run.shard] = run.hi
		}
		for s, v := range cs.views {
			if int(heads[s]) != v.Index().NumPivots() {
				t.Fatalf("epoch %d: schedule covers %d of shard %d's %d nodes", epoch, heads[s], s, v.Index().NumPivots())
			}
		}

		for _, method := range []core.Method{core.MethodIndex, core.MethodAuto} {
			want := render(e.IntervalBatch(scatterBatch(), method))
			if got := render(c.IntervalBatch(scatterBatch(), method)); got != want {
				t.Fatalf("epoch %d %v: batch diverged\nengine:      %.300s\ncoordinator: %.300s", epoch, method, want, got)
			}
		}
		wantMixed, wantPlans, err := core.Run(e.View(), mixedBatch(), core.MethodAuto, true)
		if err != nil {
			t.Fatal(err)
		}
		gotMixed, gotPlans, err := core.Run(cs, mixedBatch(), core.MethodAuto, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(gotMixed), fmt.Sprint(wantMixed); got != want {
			t.Fatalf("epoch %d: mixed batch diverged\nengine:      %.300s\ncoordinator: %.300s", epoch, want, got)
		}
		resolved := make(map[core.Method]int)
		for i, p := range gotPlans {
			if p.Method != wantPlans[i].Method {
				t.Fatalf("epoch %d: item %d planned %v on the coordinator, %v on the engine", epoch, i, p.Method, wantPlans[i].Method)
			}
			resolved[p.Method]++
		}
		if resolved[core.MethodIndex] < 2 || resolved[core.MethodNaive]+resolved[core.MethodAffine] == 0 {
			t.Fatalf("epoch %d: the mixed batch resolved to %v, want index items and a sweep", epoch, resolved)
		}

		if epoch == rounds {
			break
		}
		for _, tick := range fx.ticks[epoch*slide : (epoch+1)*slide] {
			if err := e.Append(tick); err != nil {
				t.Fatal(err)
			}
			if err := c.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Advance(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoordinatorSkipIndex(t *testing.T) {
	cfg := core.Config{Clusters: 4, Seed: 5, SkipIndex: true}
	e, c := buildFixturePair(t, 2, cfg)

	// Auto falls back to sweeps, identically to the engine (the ErrNoIndex
	// probes are rows of the shared pipeline table, pipeline_test.go).
	want := render(e.Interval(measure.Correlation, interval.GreaterThan(0.25), core.MethodAuto))
	got := render(c.Interval(measure.Correlation, interval.GreaterThan(0.25), core.MethodAuto))
	if got != want {
		t.Fatalf("SkipIndex auto diverged: %s vs %s", got, want)
	}
}

func TestCoordinatorComputeSurface(t *testing.T) {
	cfg := core.Config{Clusters: 4, Seed: 5}
	e, c := buildFixturePair(t, 3, cfg)
	ids := []timeseries.SeriesID{2, 9, 4, 17}

	for _, method := range []core.Method{core.MethodNaive, core.MethodAffine, core.MethodAuto} {
		qs := []plan.QuerySpec{
			core.ComputeSpec(measure.Correlation, ids),
			core.ComputeSpec(measure.Mean, ids),
		}
		want := render(e.Batch(qs, method))
		got := render(c.Batch(qs, method))
		if got != want {
			t.Fatalf("%v MEC batch diverged:\n%s\n%s", method, got, want)
		}
	}

	// Type guards.
	if _, err := c.ComputeLocation(measure.Correlation, ids, core.MethodAuto); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatal("ComputeLocation accepted a pairwise measure")
	}
	if _, err := c.ComputePairwise(measure.Mean, ids, core.MethodAuto); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatal("ComputePairwise accepted an L-measure")
	}
	if _, err := c.ComputePairwise(measure.Correlation, ids, core.MethodIndex); !errors.Is(err, core.ErrBadMethod) {
		t.Fatal("pairwise MEC accepted MethodIndex")
	}
}

// TestCoordinatorBaseValuesMatchEngine: a coordinator's BaseValues, which
// asks each shard once for the pairs it owns, equals a single engine's bit for
// bit on every pair of the window, by Naive (the shards' fit columns) and by
// Affine (the owning shards' pivot summaries), at 2 and 3 shards.  The list
// also pairs every series with itself, as a MEC's diagonal does: such a pair
// has no slot and goes through slot 0's owner to its kernels.  The capped case
// assembles a coordinator epoch over a layout symex.Options.MaxRelationships
// cut short — Build refuses one — so that pairs without a slot interleave with
// assigned ones across the owner grouping.
func TestCoordinatorBaseValuesMatchEngine(t *testing.T) {
	fx := makeShardFixture(t, 24, 90, 0, 7)
	pairs := fx.window.AllPairs()
	for _, id := range fx.window.IDs() {
		pairs = append(pairs, timeseries.Pair{U: id, V: id})
	}
	want, got := make([]float64, len(pairs)), make([]float64, len(pairs))
	check := func(label string, e core.View, c core.Backend) {
		t.Helper()
		for _, method := range []core.Method{core.MethodNaive, core.MethodAffine} {
			for _, base := range []measure.Measure{measure.Covariance, measure.DotProduct} {
				if err := e.BaseValues(base, pairs, method, want); err != nil {
					t.Fatal(err)
				}
				if err := c.BaseValues(base, pairs, method, got); err != nil {
					t.Fatal(err)
				}
				for i, pair := range pairs {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %v %v %v: coordinator %v, engine %v", label, method, base, pair, got[i], want[i])
					}
				}
			}
		}
	}
	cfg := core.Config{Clusters: 4, Seed: 5}
	for _, shards := range []int{2, 3} {
		e, c := buildFixturePair(t, shards, cfg)
		check(fmt.Sprintf("S=%d", shards), e.View(), c.state())
	}

	full, err := core.Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := symex.Compute(fx.window, symex.Options{Clustering: full.Relationships().Clustering, CachePseudoInverse: true, MaxRelationships: 120})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := core.BuildFromRelationships(fx.window, cfg, rel)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := ComputePlacement(rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := cfg
	shardCfg.AssignedPairsOnly = true
	shardCfg.Clustering = rel.Clustering
	views := make([]core.View, pl.Shards)
	for s := range views {
		restricted, _, err := Restrict(rel, pl.Owner, s)
		if err != nil {
			t.Fatal(err)
		}
		se, err := core.BuildFromRelationships(fx.window, shardCfg, restricted)
		if err != nil {
			t.Fatal(err)
		}
		views[s] = se.View()
	}
	if pl.Shards != 2 || rel.Len() >= fx.window.NumPairs() {
		t.Fatalf("capped layout: %d shards, %d of %d pairs assigned", pl.Shards, rel.Len(), fx.window.NumPairs())
	}
	check("capped", capped.View(), &coordState{views: views, rel: rel, owner: pl.Owner})
}

// TestCoordinatorLayoutCoversEveryPair pins what the coordinator's pair
// routing relies on: Build's assignment is total, so every pair of the window
// has a slot and an owning shard, the shards' slot lists partition the
// global slots, and the shard universes add up to every pair.
func TestCoordinatorLayoutCoversEveryPair(t *testing.T) {
	fx := makeShardFixture(t, 24, 90, 0, 7)
	for _, shards := range []int{1, 2, 3} {
		c, err := Build(fx.window, Config{Shards: shards, Engine: core.Config{Clusters: 4, Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		cs := c.state()
		for _, p := range fx.window.AllPairs() {
			if _, ok := c.layout.Slot(p); !ok {
				t.Fatalf("S=%d: pair %v has no slot", shards, p)
			}
			if owner := cs.pairOwner(p); owner < 0 || owner >= c.NumShards() {
				t.Fatalf("S=%d: pair %v routes to shard %d of %d", shards, p, owner, c.NumShards())
			}
		}
		owned := make([]int, len(c.layout.Assignments()))
		universe := 0
		for s, slots := range c.slots {
			for _, slot := range slots {
				owned[slot]++
			}
			universe += c.engines[s].Info().NumPairs
		}
		for slot, n := range owned {
			if n != 1 {
				t.Fatalf("S=%d: slot %d is owned by %d shards", shards, slot, n)
			}
		}
		if len(owned) != fx.window.NumPairs() || universe != fx.window.NumPairs() {
			t.Fatalf("S=%d: %d slots and %d universe pairs for %d pairs", shards, len(owned), universe, fx.window.NumPairs())
		}
	}
}

func TestCoordinatorSingleShardAccessors(t *testing.T) {
	fx := makeShardFixture(t, 24, 90, 0, 7)
	c, err := Build(fx.window, Config{Shards: 0, Engine: core.Config{Clusters: 4, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 1 {
		t.Fatalf("S=0 built %d shards", c.NumShards())
	}
	pl := c.Placement()
	if pl.Shards != 1 || pl.Groups < 1 {
		t.Fatalf("placement %+v", pl)
	}
	if c.Epoch() != 0 {
		t.Fatalf("epoch %d", c.Epoch())
	}
}

// TestRestrictThenMergeIsIdentity: restricting the global result to the
// shards and merging the shard results back is the identity — every global
// slot gets its own relationship back, over the same layout, with the same counts — at build time and, against a single
// engine fed the same ticks, after a drift-selected refit.
func TestRestrictThenMergeIsIdentity(t *testing.T) {
	cfg := core.Config{Clusters: 4, Seed: 5, Stream: core.StreamConfig{DriftBound: 0.02}}
	fx := makeShardFixture(t, 24, 90, 12, 7)
	single, err := core.Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(fx.window, Config{Shards: 3, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	global := c.Relationships()
	views := func() []core.View {
		out := make([]core.View, len(c.engines))
		for i, e := range c.engines {
			out[i] = e.View()
		}
		return out
	}
	merged := c.mergeRelationships(views())
	if merged.Layout() != global.Layout() || merged.Clustering != global.Clustering {
		t.Fatal("the merge rebuilt the layout or the clustering instead of sharing them")
	}
	if merged.Len() != global.Len() || merged.Stats.NumPivots != global.Stats.NumPivots {
		t.Fatalf("merged %d relationships over %d pivots, global %d over %d",
			merged.Len(), merged.Stats.NumPivots, global.Len(), global.Stats.NumPivots)
	}
	for slot := range global.AssignmentList() {
		if merged.At(slot) != global.At(slot) {
			t.Fatalf("slot %d: the merge returned a different relationship than Restrict was given", slot)
		}
	}

	for epoch := 0; epoch < 3; epoch++ {
		for _, tick := range fx.ticks[epoch*4 : epoch*4+4] {
			if err := single.Append(tick); err != nil {
				t.Fatal(err)
			}
			if err := c.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		want, err := single.Advance()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if got.RefitRelationships != want.RefitRelationships || got.ReusedRelationships != want.ReusedRelationships ||
			got.RefitPivots != want.RefitPivots || len(got.Stale) != len(want.Stale) {
			t.Fatalf("epoch %d: coordinator refit/reused/pivots %d/%d/%d (%d stale), single engine %d/%d/%d (%d stale)", epoch+1,
				got.RefitRelationships, got.ReusedRelationships, got.RefitPivots, len(got.Stale),
				want.RefitRelationships, want.ReusedRelationships, want.RefitPivots, len(want.Stale))
		}
		merged, ref := c.Relationships(), single.Relationships()
		if merged.Layout() != global.Layout() || merged.Len() != ref.Len() || merged.Stats.NumPivots != ref.Stats.NumPivots {
			t.Fatalf("epoch %d: merged %d relationships over %d pivots, single engine %d over %d", epoch+1,
				merged.Len(), merged.Stats.NumPivots, ref.Len(), ref.Stats.NumPivots)
		}
		for _, a := range merged.AssignmentList() {
			g, gok := merged.Relationship(a.Pair)
			w, wok := ref.Relationship(a.Pair)
			if gok != wok || (gok && (g.Pivot != w.Pivot || g.Flipped != w.Flipped || g.Transform != w.Transform)) {
				t.Fatalf("epoch %d: pair %v differs between the merged result and the single engine", epoch+1, a.Pair)
			}
		}
	}
}

// TestShardsShareOneWindowReduction: behind a coordinator every shard engine,
// every shard's kernel mirror and the coordinator itself read one reduction of
// the shared window — the memo on the DataMatrix — and one reduction of the
// frozen centers, at a build and after every Advance, instead of making S + 1.
func TestShardsShareOneWindowReduction(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		fx := makeShardFixture(t, 24, 90, 6, 7)
		c, err := Build(fx.window, Config{Shards: shards, Engine: core.Config{
			Clusters: 4, Seed: 5, Parallelism: 2, Stream: core.StreamConfig{DriftBound: 0.5},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if c.NumShards() != shards {
			t.Fatalf("S=%d: built %d shards", shards, c.NumShards())
		}
		var previous *timeseries.Moments
		for epoch := 0; epoch <= 3; epoch++ {
			if epoch > 0 {
				for _, tick := range fx.ticks[2*(epoch-1) : 2*epoch] {
					if err := c.Append(tick); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := c.Advance(); err != nil {
					t.Fatal(err)
				}
			}
			window := c.Data().Moments()
			if window == previous {
				t.Fatalf("S=%d epoch %d: the slid window kept its predecessor's moments", shards, epoch)
			}
			previous = window
			centers := c.Relationships().Clustering.CenterMoments()
			for s, e := range c.engines {
				kern, err := kernel.FromData(e.Data())
				if err != nil {
					t.Fatal(err)
				}
				mom, err := kern.Moments()
				if err != nil {
					t.Fatal(err)
				}
				if e.Data().Moments() != window || mom != window {
					t.Fatalf("S=%d epoch %d shard %d: the shard reduced the shared window itself", shards, epoch, s)
				}
				if e.Relationships().Clustering.CenterMoments() != centers {
					t.Fatalf("S=%d epoch %d shard %d: the shard reduced the frozen centers itself", shards, epoch, s)
				}
			}
		}
	}
}
