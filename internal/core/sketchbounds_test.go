package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/kernel"
	"affinity/internal/measure"
	"affinity/internal/par"
	"affinity/internal/plan"
	"affinity/internal/scape"
	"affinity/internal/sketch"
	"affinity/internal/timeseries"
)

// This file pins the sketch-bound columns (basecolumns.go): an epoch's
// coefficient-sketch bounds on a base are the bits BoundBlock gives each
// chunk, filled once per base and epoch by the first sketched naive sweep or
// top-k of that base and by nothing else, and the sketch tier's counters are
// what classifying every item against per-chunk BoundBlock calls gives.

// sketchFixture returns an n-series window of m samples, with series 3 held
// constant (zero centred energy) when constant is set.
func sketchFixture(t *testing.T, n, m int, constant bool) *timeseries.DataMatrix {
	t.Helper()
	fx := makeStreamFixture(t, n, max(m, 8), 0, 29)
	rows := make([][]float64, n)
	for v := range rows {
		s, err := fx.window.Series(timeseries.SeriesID(v))
		if err != nil {
			t.Fatal(err)
		}
		rows[v] = append([]float64(nil), s[:m]...)
	}
	if constant {
		for i := range rows[3] {
			rows[3][i] = 5
		}
	}
	d, err := timeseries.NewDataMatrix(rows)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// boundBits returns the Float64bits of lo and hi side by side.
func boundBits(lo, hi []float64) [][2]uint64 {
	out := make([][2]uint64, len(lo))
	for i := range lo {
		out[i] = [2]uint64{math.Float64bits(lo[i]), math.Float64bits(hi[i])}
	}
	return out
}

// TestSketchBoundColumnMatchesBoundBlock compares both bases' columns with
// BoundBlock called chunk by chunk over the epoch's universe, bit for bit:
// plain data, a constant series, an m = 2 window (d clamps to 1) and d
// clamped to m − 1, over the full universe and an AssignedPairsOnly one (a
// shard's construction path) at P ∈ {1, 2, 8}, cold and after an Advance.
func TestSketchBoundColumnMatchesBoundBlock(t *testing.T) {
	shapes := []struct {
		name     string
		m, d     int
		constant bool
	}{
		{"plain", 90, 8, false},
		{"constant series", 60, 8, true},
		{"m=2", 2, 4, false},
		{"d=m-1", 40, 1 << 20, false},
	}
	const n = 30
	for _, sh := range shapes {
		for _, p := range determinismLevels {
			for _, restricted := range []bool{false, true} {
				label := fmt.Sprintf("%s P=%d restricted=%v", sh.name, p, restricted)
				cfg := Config{
					Clusters: 3, Seed: 5, Parallelism: p,
					Sketch: sketch.Options{Enabled: true, Coefficients: sh.d},
				}
				limit := 0
				if restricted {
					cfg.AssignedPairsOnly, limit = true, 300
				}
				e := buildLimited(t, sketchFixture(t, n, sh.m, sh.constant), cfg, limit)
				if got, want := e.escapedState().sketch.Coefficients(), min(sh.d, sh.m-1); got != want {
					t.Fatalf("%s: %d coefficients kept, want %d", label, got, want)
				}
				if restricted && e.escapedState().numUniversePairs() == n*(n-1)/2 {
					t.Fatalf("%s: the universe is not restricted", label)
				}
				requireBoundColumnsOfBoundBlock(t, label+" cold", e.escapedState())
				tick := make([]float64, n)
				for v := range tick {
					tick[v] = float64(v%5) - 2
				}
				if sh.constant {
					tick[3] = 5
				}
				advanceBoth(t, [][]float64{tick}, e)
				requireBoundColumnsOfBoundBlock(t, label+" epoch 1", e.escapedState())
			}
		}
	}
}

// requireBoundColumnsOfBoundBlock fills both of the epoch's bound columns and
// compares them with BoundBlock over each kernel chunk of the universe.
func requireBoundColumnsOfBoundBlock(t *testing.T, label string, st *engineState) {
	t.Helper()
	_, mom, err := st.naiveKernel()
	if err != nil {
		t.Fatal(err)
	}
	numPairs := st.numUniversePairs()
	for _, base := range []measure.Measure{measure.Covariance, measure.DotProduct} {
		col := st.sketchBounds(base, mom)
		if len(col.lo) != numPairs || len(col.hi) != numPairs {
			t.Fatalf("%s %v: column of %d/%d bounds over %d pairs", label, base, len(col.lo), len(col.hi), numPairs)
		}
		scratch := make([]timeseries.Pair, kernel.BlockPairs)
		lo, hi := make([]float64, kernel.BlockPairs), make([]float64, kernel.BlockPairs)
		for at := 0; at < numPairs; at += kernel.BlockPairs {
			chunk := st.universeChunk(at, min(at+kernel.BlockPairs, numPairs), scratch)
			if !st.sketch.BoundBlock(base, mom, chunk, lo, hi) {
				t.Fatalf("%s: BoundBlock(%v) has no bound", label, base)
			}
			want := boundBits(lo[:len(chunk)], hi[:len(chunk)])
			got := boundBits(col.lo[at:at+len(chunk)], col.hi[at:at+len(chunk)])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %v: pair %v at %d: column [%v, %v], BoundBlock [%v, %v]", label, base, chunk[i], at+i,
						col.lo[at+i], col.hi[at+i], lo[i], hi[i])
				}
			}
		}
	}
}

// TestSketchBoundColumnsFilledOnDemand: Build and Advance fill no bound
// column, and neither do index and affine sweeps, MEC, single-pair values,
// the paper's W_N sweep, nor an engine without a sketch.  The first sketched
// naive sweep of a base fills that base's column and no other, once per
// epoch; the column dies with its epoch, and a view pinned before an Advance
// keeps reading its own.
func TestSketchBoundColumnsFilledOnDemand(t *testing.T) {
	fx := makeStreamFixture(t, 20, 90, 4, 7)
	cfg := Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.5}}
	plain, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sketch = sketch.Options{Enabled: true, Coefficients: 8}
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	filled := func(e *Engine) (cov, dot bool) {
		cols := e.escapedState().cols
		return cols.covBounds.lo != nil, cols.dotBounds.lo != nil
	}
	requireFills := func(tag string, e *Engine, wantFills int64, wantCov, wantDot bool) {
		t.Helper()
		cov, dot := filled(e)
		if got := e.sweep.boundFills.Load(); got != wantFills || cov != wantCov || dot != wantDot {
			t.Fatalf("%s: %d bound fills, covariance column %v, dot-product column %v; want %d, %v, %v",
				tag, got, cov, dot, wantFills, wantCov, wantDot)
		}
	}
	requireFills("build", e, 0, false, false)
	ids := e.Data().IDs()
	specs := []plan.QuerySpec{
		plan.Interval(measure.Correlation, interval.GreaterThan(0.5)),
		plan.Interval(measure.EuclideanDistance, interval.AtMost(5)),
		plan.TopK(measure.Covariance, 5, true),
		plan.TopK(measure.Cosine, 5, false),
	}
	for round := 0; round < 2; round++ {
		for _, method := range []Method{MethodIndex, MethodAffine} {
			if _, _, err := Run(e.View(), specs, method, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, method := range []Method{MethodNaive, MethodAffine} {
			if _, err := e.ComputePairwise(measure.Correlation, ids, method); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := pipelineSweep(e, measure.Cosine, MethodNaive); err != nil {
			t.Fatal(err)
		}
		requireFills(fmt.Sprintf("epoch %d, no naive sweep", round), e, 0, false, false)
		advanceBoth(t, fx.ticks[round:round+1], e, plain)
		requireFills(fmt.Sprintf("Advance %d", round+1), e, 0, false, false)
	}

	// One naive correlation sweep fills the covariance column only; later
	// sweeps of the base — another measure, a top-k, a batch — read it.
	if _, err := e.Interval(measure.Correlation, interval.GreaterThan(0.5), MethodNaive); err != nil {
		t.Fatal(err)
	}
	requireFills("first naive correlation sweep", e, 1, true, false)
	covLo := &e.escapedState().cols.covBounds.lo[0]
	if _, err := runSpecs(e, []plan.QuerySpec{
		plan.Interval(measure.Covariance, interval.Between(-0.1, 0.1)),
		plan.TopK(measure.Correlation, 4, false),
	}, MethodNaive); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopK(measure.Covariance, 3, true, MethodNaive); err != nil {
		t.Fatal(err)
	}
	requireFills("three more covariance-based naive sweeps", e, 1, true, false)
	if &e.escapedState().cols.covBounds.lo[0] != covLo {
		t.Fatal("a later sweep replaced the covariance bound column")
	}
	if _, err := e.TopK(measure.Cosine, 3, true, MethodNaive); err != nil {
		t.Fatal(err)
	}
	requireFills("first naive cosine top-k", e, 2, true, true)

	// The plain twin sweeps naively and keeps no bound column.
	for _, spec := range specs {
		if _, err := runSpecs(plain, []plan.QuerySpec{spec}, MethodNaive); err != nil {
			t.Fatal(err)
		}
	}
	requireFills("engine without a sketch", plain, 0, false, false)

	// The next epoch starts with none; a view pinned before the Advance keeps
	// its own column, bit for bit, and answers from it.
	old := e.View()
	oldCol := old.cols.covBounds.lo
	oldBits := boundBits(old.cols.covBounds.lo, old.cols.covBounds.hi)
	before, _, err := Run(old, specs[:1], MethodNaive, false)
	if err != nil {
		t.Fatal(err)
	}
	advanceBoth(t, fx.ticks[2:3], e)
	requireFills("Advance after naive sweeps", e, 2, false, false)
	if _, err := e.Interval(measure.Correlation, interval.GreaterThan(0.5), MethodNaive); err != nil {
		t.Fatal(err)
	}
	requireFills("the new epoch's first naive sweep", e, 3, true, false)
	if &e.escapedState().cols.covBounds.lo[0] == &oldCol[0] {
		t.Fatal("the new epoch reads the previous epoch's column")
	}
	again, _, err := Run(old, specs[:1], MethodNaive, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "pinned view", again, before)
	if &old.cols.covBounds.lo[0] != &oldCol[0] || !slices.Equal(boundBits(old.cols.covBounds.lo, old.cols.covBounds.hi), oldBits) {
		t.Fatal("the Advance touched the previous epoch's column")
	}
	if got := e.sweep.boundFills.Load(); got != 3 {
		t.Fatalf("re-sweeping the pinned epoch filled a column: %d fills, want 3", got)
	}
}

// TestSketchBoundColumnConcurrentFirstSweeps: eight goroutines issue an
// epoch's first naive sweeps at once — each base's column is filled exactly
// once and every answer equals the sketch-free twin's.  The epochs are
// partial refits (DriftBound > 0, after a first Advance), where the
// covariance base has no fit column and is sketched too.  Run with -race (CI
// does).
func TestSketchBoundColumnConcurrentFirstSweeps(t *testing.T) {
	const goroutines = 8
	for _, p := range []int{1, 8} {
		fx := makeStreamFixture(t, 24, 90, 3, 19)
		cfg := Config{Clusters: 4, Seed: 5, Parallelism: p, Stream: StreamConfig{DriftBound: 0.5}}
		plain, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sketch = sketch.Options{Enabled: true, Coefficients: 8}
		e, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		advanceBoth(t, fx.ticks[:1], e, plain)
		specs := []plan.QuerySpec{
			plan.Interval(measure.Correlation, interval.GreaterThan(0.4)),
			plan.Interval(measure.Cosine, interval.Between(0.2, 0.9)),
			plan.TopK(measure.Covariance, 6, true),
			plan.TopK(measure.EuclideanDistance, 6, false),
		}
		for round := 0; round < 2; round++ {
			want, err := runSpecs(plain, specs, MethodNaive)
			if err != nil {
				t.Fatal(err)
			}
			fills := e.sweep.boundFills.Load()
			got := make([][]QueryResult, goroutines)
			errs := make([]error, goroutines)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := range specs {
						spec := specs[(g+i)%len(specs)]
						res, err := runSpecs(e, []plan.QuerySpec{spec}, MethodNaive)
						if err != nil {
							errs[g] = err
							return
						}
						got[g] = append(got[g], res[0])
					}
				}()
			}
			close(start)
			wg.Wait()
			for g := range got {
				if errs[g] != nil {
					t.Fatalf("P=%d epoch %d goroutine %d: %v", p, round+1, g, errs[g])
				}
				for i := range specs {
					q := (g + i) % len(specs)
					mustEqualResults(t, fmt.Sprintf("P=%d epoch %d goroutine %d %v", p, round+1, g, specs[q]), got[g][i], want[q])
				}
			}
			if d := e.sweep.boundFills.Load() - fills; d != 2 {
				t.Fatalf("P=%d epoch %d: %d bound-column fills under %d concurrent first sweeps, want 2 (one per base)", p, round+1, d, goroutines)
			}
			advanceBoth(t, fx.ticks[round+1:round+2], e, plain)
		}
	}
}

// TestSketchCountersMatchPerItemOracle runs a fixed sequence — a tail and a
// band interval on correlation, cosine and Euclidean distance, and naive top-k
// in both directions — and holds the sketch tier's counters to an oracle that
// bounds every item afresh with BoundBlock per chunk and classifies each pair
// with Interval.Classify: the column changes what a sweep reads, not what it
// counts.  The epochs are partial refits (DriftBound > 0, after a first
// Advance), where correlation has no fit column and is sketched.  With 130
// series every row block spans more than one chunk even at P = 8, so a top-k
// heap is full when a later chunk of its block is classified.
func TestSketchCountersMatchPerItemOracle(t *testing.T) {
	for _, p := range determinismLevels {
		fx := makeStreamFixture(t, 130, 90, 2, 23)
		e, err := Build(fx.window, Config{
			Clusters: 4, Seed: 5, Parallelism: p,
			Sketch: sketch.Options{Enabled: true, Coefficients: 8},
			Stream: StreamConfig{DriftBound: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		advanceBoth(t, fx.ticks[:1], e)
		for round := 0; round < 2; round++ {
			label := fmt.Sprintf("P=%d epoch %d", p, round+1)
			oracle := newScalarOracle(t, e)
			var specs []plan.QuerySpec
			for _, m := range []measure.Measure{measure.Correlation, measure.Cosine, measure.EuclideanDistance} {
				finite := sketchQuantiles(oracle.values[m])
				q := func(p float64) float64 { return quantile(finite, p) }
				tail := interval.GreaterThan(q(0.9))
				if m == measure.EuclideanDistance {
					tail = interval.LessThan(q(0.1))
				}
				specs = append(specs,
					plan.Interval(m, tail),
					plan.Interval(m, interval.Between(q(0.45), q(0.5))),
					plan.TopK(m, 7, true),
					plan.TopK(m, 7, false))
			}
			before := e.StreamStats()
			for _, spec := range specs {
				if _, err := runSpecs(e, []plan.QuerySpec{spec}, MethodNaive); err != nil {
					t.Fatal(err)
				}
			}
			// The same items once more in one batch: every item rides one
			// pass, and a top-k's heap sees only what it would alone.
			if _, err := runSpecs(e, specs, MethodNaive); err != nil {
				t.Fatal(err)
			}
			after := e.StreamStats()
			got := sketch.Stats{
				Sweeps:           after.SketchSweeps - before.SketchSweeps,
				DefiniteIn:       after.SketchDefiniteIn - before.SketchDefiniteIn,
				DefiniteOut:      after.SketchDefiniteOut - before.SketchDefiniteOut,
				Ambiguous:        after.SketchAmbiguous - before.SketchAmbiguous,
				TopKSkippedPairs: after.SketchTopKSkippedPairs - before.SketchTopKSkippedPairs,
			}
			var want sketch.Stats
			for range 2 {
				for _, spec := range specs {
					countSketchOracle(t, e.escapedState(), oracle, spec, &want)
				}
			}
			if got != want {
				t.Fatalf("%s: counters %+v, per-item oracle %+v", label, got, want)
			}
			if want.DefiniteIn == 0 || want.DefiniteOut == 0 || want.Ambiguous == 0 || want.TopKSkippedPairs == 0 {
				t.Fatalf("%s: the sequence leaves a counter at zero (%+v): the oracle is vacuous", label, want)
			}
			if round == 0 {
				advanceBoth(t, fx.ticks[1:2], e)
			}
		}
	}
}

// liftedBounds bounds the value of sp for every pair of the full universe the
// way a sweep's bound provider would, computed from scratch: BoundBlock per
// chunk for the sketch, PairMoments.Bounds for the pair-moment column, lifted
// through Spec.Lift, NaN where either step has no answer.
func liftedBounds(t *testing.T, st *engineState, sp *measure.Spec, useSketch bool) (lo, hi []float64) {
	t.Helper()
	_, mom, err := st.naiveKernel()
	if err != nil {
		t.Fatal(err)
	}
	var pm *kernel.PairMoments
	if !useSketch {
		if pm, err = st.pairMoments(); err != nil || pm == nil {
			t.Fatalf("no pair-moment column (%v)", err)
		}
	}
	numPairs := st.numUniversePairs()
	lo, hi = make([]float64, numPairs), make([]float64, numPairs)
	scratch := make([]timeseries.Pair, kernel.BlockPairs)
	u, vLo, vHi := make([]float64, kernel.BlockPairs), make([]float64, kernel.BlockPairs), make([]float64, kernel.BlockPairs)
	for at := 0; at < numPairs; at += kernel.BlockPairs {
		chunk := st.universeChunk(at, min(at+kernel.BlockPairs, numPairs), scratch)
		cLo, cHi := lo[at:at+len(chunk)], hi[at:at+len(chunk)]
		if useSketch {
			if !st.sketch.BoundBlock(sp.Base, mom, chunk, cLo, cHi) {
				t.Fatalf("BoundBlock(%v) has no bound", sp.Base)
			}
		} else {
			pm.Bounds(sp.Base == measure.Covariance, mom.Sum, at, chunk, cLo, cHi)
		}
		for i, pair := range chunk {
			u[i] = sp.Param(mom.Stat(pair.U), mom.Stat(pair.V))
		}
		sp.Lift(cLo, cHi, u[:len(chunk)], st.data.NumSamples(), vLo[:len(chunk)], vHi[:len(chunk)])
		for i := range chunk {
			cLo[i], cHi[i] = vLo[i], vHi[i]
			if math.IsNaN(vLo[i]) || math.IsNaN(vHi[i]) {
				cLo[i], cHi[i] = math.NaN(), math.NaN()
			}
		}
	}
	return lo, hi
}

// countSketchOracle adds what one naive item of a full-universe engine
// contributes to the sketch counters.  An interval classifies every pair
// against its sketch bound.  A top-k replays each row block of the engine's
// partition (par.Blocks) in chunk order with a heap of its own: every pair of
// a chunk is classified against the heap's running interval as the chunk
// begins — the pairs it rules out count as skipped, the rest as ambiguous —
// and then offered with its exact value (a pair ruled out cannot enter the
// heap, so offering it changes nothing).
func countSketchOracle(t *testing.T, st *engineState, oracle *scalarOracle, spec plan.QuerySpec, c *sketch.Stats) {
	t.Helper()
	sp := measure.Lookup(spec.Measure)
	lo, hi := liftedBounds(t, st, sp, true)
	c.Sweeps++
	if spec.Kind == plan.KindInterval {
		for i := range lo {
			switch spec.Interval.Classify(lo[i], hi[i]) {
			case interval.DefiniteIn:
				c.DefiniteIn++
			case interval.DefiniteOut:
				c.DefiniteOut++
			default:
				c.Ambiguous++
			}
		}
		return
	}
	for _, blk := range par.Blocks(len(lo), st.par) {
		heap := scape.NewTopHeap(spec.K, spec.Largest)
		for at := blk.Lo; at < blk.Hi; at += kernel.BlockPairs {
			end := min(at+kernel.BlockPairs, blk.Hi)
			iv := heap.RunningInterval()
			for i := at; i < end; i++ {
				if iv.Classify(lo[i], hi[i]) == interval.DefiniteOut {
					c.TopKSkippedPairs++
				} else {
					c.Ambiguous++
				}
			}
			for i := at; i < end; i++ {
				heap.Offer(oracle.pairs[i], oracle.values[spec.Measure][i])
			}
		}
	}
}
