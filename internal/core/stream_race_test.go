package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/scape"
	"affinity/internal/timeseries"
)

// TestConcurrentQueriesDuringAdvance hammers the read path (Threshold,
// ComputePairwise, PairValue, ComputeLocation, sweeps) from many goroutines
// while the write path appends ticks and advances the window.  Run with
// -race (CI does): the epoch-swap design must never let a query observe a
// partially built state.
func TestConcurrentQueriesDuringAdvance(t *testing.T) {
	const n, window, slide, rounds = 16, 80, 5, 12
	fx := makeStreamFixture(t, n, window, slide*rounds, 41)
	e, err := Build(fx.window, Config{Clusters: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ids := fx.window.IDs()
	pair := timeseries.Pair{U: 0, V: 1}

	var stop atomic.Bool
	var queries atomic.Int64
	errCh := make(chan error, 64)
	report := func(err error) {
		if err != nil {
			select {
			case errCh <- err:
			default:
			}
		}
	}

	// The writer waits for every reader's first query before streaming, so
	// the overlap the test exists for cannot be lost to scheduling luck on a
	// single-core box (readers keep looping until stop).
	var wg, ready sync.WaitGroup
	reader := func(body func() error) {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for !stop.Load() {
				report(body())
				queries.Add(1)
				if first {
					ready.Done()
					first = false
				}
			}
		}()
	}

	for i := 0; i < 3; i++ {
		reader(func() error {
			res, err := e.Interval(measure.Correlation, interval.GreaterThan(0.8), MethodIndex)
			if err != nil {
				return err
			}
			// Result must be internally consistent: every pair canonical.
			for _, p := range res.Pairs {
				if !p.Valid() {
					t.Errorf("invalid pair %v from index threshold", p)
				}
			}
			return nil
		})
	}
	reader(func() error {
		_, err := e.ComputePairwise(measure.Covariance, ids, MethodAffine)
		return err
	})
	reader(func() error {
		_, err := e.ComputePairwise(measure.Correlation, ids[:6], MethodNaive)
		return err
	})
	reader(func() error {
		_, err := e.ComputePairwise(measure.Correlation, []timeseries.SeriesID{pair.U, pair.V}, MethodAffine)
		return err
	})
	reader(func() error {
		_, err := e.ComputeLocation(measure.Mean, ids, MethodAffine)
		return err
	})
	reader(func() error {
		_, err := e.Interval(measure.Covariance, interval.Between(-0.5, 0.5), MethodIndex)
		return err
	})
	reader(func() error {
		_, err := e.PairwiseSweepAffine(measure.Correlation)
		return err
	})
	reader(func() error {
		// Mixed-epoch metadata reads.
		_ = e.Info()
		_ = e.Epoch()
		_ = e.Data().NumSamples()
		return nil
	})

	// Writer: stream all ticks, advancing after every `slide` appends.
	ready.Wait()
	for round := 0; round < rounds; round++ {
		for _, tick := range fx.ticks[round*slide : (round+1)*slide] {
			if err := e.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent query failed: %v", err)
	}
	if e.Epoch() != rounds {
		t.Fatalf("epoch = %d, want %d", e.Epoch(), rounds)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries executed concurrently")
	}
}

// TestConcurrentQueriesDuringIncrementalAdvance pins the immutability
// contract of incremental index maintenance under -race: readers query both
// the live engine AND retained previous-epoch indexes (which share sequence
// stores with the live one) while Advance builds the next index and the pooled
// per-epoch scratch buffers recycle underneath them.  StreamStats snapshots
// race against the writer too.
func TestConcurrentQueriesDuringIncrementalAdvance(t *testing.T) {
	const n, window, slide, rounds = 16, 80, 5, 10
	fx := makeStreamFixture(t, n, window, slide*rounds, 53)
	e, err := Build(fx.window, Config{
		Clusters:    4,
		Seed:        13,
		Parallelism: 4,
		// A bounded drift keeps the stale set partial, so consecutive epochs'
		// indexes genuinely share sequence stores.
		Stream: StreamConfig{DriftBound: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var queries atomic.Int64
	errCh := make(chan error, 64)
	report := func(err error) {
		if err != nil {
			select {
			case errCh <- err:
			default:
			}
		}
	}

	// Retained epochs: the writer publishes each epoch's index here and
	// readers keep querying old ones — nothing an Advance does may change what
	// a retained index answers.
	var retained sync.Map // epoch int -> *scape.Index
	retained.Store(0, e.escapedState().index)

	// The writer waits for every reader's first query before streaming, so
	// the overlap the test exists for cannot be lost to scheduling luck on a
	// single-core box (readers keep looping until stop).
	var wg, ready sync.WaitGroup
	reader := func(body func() error) {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for !stop.Load() {
				report(body())
				queries.Add(1)
				if first {
					ready.Done()
					first = false
				}
			}
		}()
	}

	for i := 0; i < 2; i++ {
		reader(func() error {
			_, err := e.Interval(measure.Correlation, interval.GreaterThan(0.8), MethodIndex)
			return err
		})
	}
	reader(func() error {
		_, err := e.Interval(measure.Covariance, interval.Between(-0.5, 0.5), MethodIndex)
		return err
	})
	reader(func() error {
		var innerErr error
		retained.Range(func(_, v any) bool {
			idx := v.(*scape.Index)
			if _, _, _, err := idx.PairTopK(measure.Correlation, 5, true); err != nil {
				innerErr = err
				return false
			}
			_, innerErr = idx.PairInterval(measure.Covariance, interval.AtLeast(0))
			return innerErr == nil
		})
		return innerErr
	})
	reader(func() error {
		ss := e.StreamStats()
		if ss.IndexUpdates+ss.IndexRebuilds > ss.Advances {
			t.Errorf("stats snapshot inconsistent: %d+%d > %d",
				ss.IndexUpdates, ss.IndexRebuilds, ss.Advances)
		}
		return nil
	})

	ready.Wait()
	for round := 0; round < rounds; round++ {
		for _, tick := range fx.ticks[round*slide : (round+1)*slide] {
			if err := e.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
		retained.Store(round+1, e.escapedState().index)
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent query failed: %v", err)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries executed concurrently")
	}
	if ss := e.StreamStats(); ss.IndexUpdates == 0 {
		t.Fatalf("delta path never engaged: %+v", ss)
	}
}

// TestConcurrentAppenders checks that concurrent writers are serialized
// correctly and no tick is lost.
func TestConcurrentAppenders(t *testing.T) {
	const n, window, total = 12, 60, 40
	fx := makeStreamFixture(t, n, window, total, 43)
	e, err := Build(fx.window, Config{Clusters: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += 4 {
				if err := e.Append(fx.ticks[i]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if e.PendingSamples() != total {
		t.Fatalf("pending = %d, want %d", e.PendingSamples(), total)
	}
	info, err := e.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if info.Slide != total {
		t.Fatalf("slide = %d, want %d", info.Slide, total)
	}
}

// TestConcurrentBatchedQueriesDuringParallelAdvance hammers the batched and
// sharded query paths — MET, MER and compute batches plus the
// block-sharded single-query scans — from many goroutines while a fully
// parallel Advance (drift scoring, refits, summaries and index rebuild all
// fanned out over workers) swaps epochs underneath them.  Run with -race (CI
// does): batches must stay pinned to one epoch and the worker pools of
// concurrent queries must never share mutable state.
func TestConcurrentBatchedQueriesDuringParallelAdvance(t *testing.T) {
	const n, window, slide, rounds = 16, 80, 5, 10
	fx := makeStreamFixture(t, n, window, slide*rounds, 47)
	e, err := Build(fx.window, Config{
		Clusters:    4,
		Seed:        13,
		Parallelism: 4,
		Stream:      StreamConfig{DriftBound: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := fx.window.IDs()

	var stop atomic.Bool
	var queries atomic.Int64
	errCh := make(chan error, 64)
	report := func(err error) {
		if err != nil {
			select {
			case errCh <- err:
			default:
			}
		}
	}

	// The writer waits for every reader's first query before streaming, so
	// the overlap the test exists for cannot be lost to scheduling luck on a
	// single-core box (readers keep looping until stop).
	var wg, ready sync.WaitGroup
	reader := func(body func() error) {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for !stop.Load() {
				report(body())
				queries.Add(1)
				if first {
					ready.Done()
					first = false
				}
			}
		}()
	}

	thresholdBatch := []plan.QuerySpec{
		plan.Interval(measure.Correlation, interval.GreaterThan(0.8)),
		plan.Interval(measure.Covariance, interval.LessThan(0.0)),
		plan.Interval(measure.Mean, interval.GreaterThan(0.2)),
	}
	rangeBatch := []plan.QuerySpec{
		plan.Interval(measure.Cosine, interval.Between(0.5, 1.0)),
		plan.Interval(measure.Covariance, interval.Between(-0.5, 0.5)),
	}
	computeBatch := []plan.QuerySpec{
		ComputeSpec(measure.Correlation, ids[:8]),
		ComputeSpec(measure.Mean, ids),
	}
	for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
		method := method
		reader(func() error {
			res, err := runSpecs(e, thresholdBatch, method)
			if err != nil {
				return err
			}
			if len(res) != len(thresholdBatch) {
				t.Errorf("batch returned %d results, want %d", len(res), len(thresholdBatch))
			}
			return nil
		})
		reader(func() error {
			_, err := runSpecs(e, rangeBatch, method)
			return err
		})
	}
	reader(func() error {
		_, err := runSpecs(e, computeBatch, MethodAffine)
		return err
	})
	// Sharded single-query scans alongside the batches.
	reader(func() error {
		_, err := e.Interval(measure.Correlation, interval.GreaterThan(0.8), MethodIndex)
		return err
	})
	reader(func() error {
		_, err := e.Interval(measure.DotProduct, interval.Between(-1, 1), MethodAffine)
		return err
	})
	reader(func() error {
		_, err := e.PairwiseSweepAffine(measure.Correlation)
		return err
	})

	ready.Wait()
	for round := 0; round < rounds; round++ {
		for _, tick := range fx.ticks[round*slide : (round+1)*slide] {
			if err := e.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent batched query failed: %v", err)
	}
	if e.Epoch() != rounds {
		t.Fatalf("epoch = %d, want %d", e.Epoch(), rounds)
	}
	if queries.Load() == 0 {
		t.Fatal("no queries executed concurrently")
	}
}

// TestFirstDerivedQueriesRaceAdvance: a D-measure's value column is filled by
// the first scan or top-k of an epoch that names it.  Every epoch, many
// goroutines issue that first correlation / Euclidean / cosine query against
// one pinned View at once — while Advance assembles the next epoch from the
// same index — and each must read its own epoch's column: the answers equal
// those of a twin engine one goroutine queries, epoch by epoch.
func TestFirstDerivedQueriesRaceAdvance(t *testing.T) {
	const n, window, slide, rounds, readers = 16, 80, 5, 8, 6
	fx := makeStreamFixture(t, n, window, slide*rounds, 59)
	cfg := Config{
		Clusters: 4, Seed: 13, Parallelism: 2,
		Stream: StreamConfig{DriftBound: 0.01},
	}
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []plan.QuerySpec{
		plan.Interval(measure.Correlation, interval.GreaterThan(0.6)),
		plan.Interval(measure.EuclideanDistance, interval.AtMost(4)),
		plan.Interval(measure.Cosine, interval.Between(0.2, 0.95)),
		plan.TopK(measure.Correlation, 7, true),
		plan.TopK(measure.EuclideanDistance, 7, false),
	}
	for round := 0; round < rounds; round++ {
		v := e.View()
		want, _, err := Run(twin.View(), specs, MethodIndex, false)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		got := make([][]QueryResult, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Each reader leads with another query, so every measure's
				// column has several goroutines racing to fill it.
				mine := append(append([]plan.QuerySpec(nil), specs[r%len(specs):]...), specs[:r%len(specs)]...)
				out, _, err := Run(v, mine, MethodIndex, false)
				if err == nil {
					out = append(out[len(specs)-r%len(specs):], out[:len(specs)-r%len(specs)]...)
				}
				got[r], errs[r] = out, err
			}()
		}
		close(start)
		for _, engine := range []*Engine{e, twin} {
			appendTicks(t, engine, fx.ticks[round*slide:(round+1)*slide])
			if _, err := engine.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		for r := range got {
			if errs[r] != nil {
				t.Fatalf("epoch %d reader %d: %v", round, r, errs[r])
			}
			for q := range specs {
				if !slices.Equal(got[r][q].Pairs, want[q].Pairs) || !slices.Equal(got[r][q].Values, want[q].Values) {
					t.Fatalf("epoch %d reader %d query %d: %d pairs, the sequential twin has %d",
						round, r, q, len(got[r][q].Pairs), len(want[q].Pairs))
				}
			}
		}
	}
	if ss := e.StreamStats(); ss.IndexUpdates == 0 {
		t.Fatalf("no epoch took the incremental index path: %+v", ss)
	}
}

// TestFirstNaiveSweepRacesAdvance: the pair-moment column is materialised by
// the first naive sweep of an epoch that has none.  Every epoch, many
// goroutines issue that sweep against one pinned View at once — while Advance
// assembles the next epoch, which either finds the column materialised and
// carries it or does not and leaves it to its own first sweep.  Both are
// byte-identical: every reader's answers equal the scalar oracle's at its
// epoch.  The statistics refresh every third epoch drops the column, so fresh
// materialisations keep racing the writer.  Run with -race (CI does).
func TestFirstNaiveSweepRacesAdvance(t *testing.T) {
	const n, window, slide, rounds, readers = 26, 60, 2, 9, 6
	fx := makeStreamFixture(t, n, window, slide*rounds, 61)
	cfg := Config{
		Clusters: 4, Seed: 13, Parallelism: 2,
		Stream: StreamConfig{DriftBound: 0.5, StatsRefreshEvery: 3},
		Cache:  qcache.Options{Enabled: true},
	}
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Build(fx.window, Config{Clusters: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		v := e.View()
		oracle := newScalarOracle(t, twin)
		var specs []plan.QuerySpec
		for _, m := range []measure.Measure{measure.Correlation, measure.Covariance, measure.Cosine, measure.EuclideanDistance} {
			specs = append(specs, stageSpecs(m, oracle.values[m])...)
		}
		start := make(chan struct{})
		got := make([][]QueryResult, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Each reader leads with another query, so the materialisation
				// has several goroutines racing for it.
				lead := r * len(specs) / readers
				mine := append(append([]plan.QuerySpec(nil), specs[lead:]...), specs[:lead]...)
				for _, spec := range mine {
					out, _, err := Run(v, []plan.QuerySpec{spec}, MethodNaive, false)
					if err != nil {
						errs[r] = err
						return
					}
					got[r] = append(got[r], out[0])
				}
				got[r] = append(got[r][len(specs)-lead:], got[r][:len(specs)-lead]...)
			}()
		}
		close(start)
		for _, engine := range []*Engine{e, twin} {
			appendTicks(t, engine, fx.ticks[round*slide:(round+1)*slide])
			if _, err := engine.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		for r := range got {
			if errs[r] != nil {
				t.Fatalf("epoch %d reader %d: %v", round, r, errs[r])
			}
			for q, spec := range specs {
				mustEqualResults(t, fmt.Sprintf("epoch %d reader %d %v", round, r, spec), got[r][q], oracle.answer(spec, nil))
			}
		}
	}
	// At least the build epoch and every epoch after a refresh materialised;
	// an epoch whose predecessor's column was not ready in time did too.
	ss := e.StreamStats()
	if min := int64(1 + (rounds-1)/3); ss.MomentFills < min || ss.MomentFills > rounds {
		t.Fatalf("%d materialisations over %d swept epochs, want between %d and %d", ss.MomentFills, rounds, min, rounds)
	}
	t.Logf("%d of %d swept epochs materialised the column, the others found it carried", ss.MomentFills, rounds)
}

// TestPinnedEpochReadsItsOwnWindowMoments: readers that hold an old epoch
// while Advance publishes new ones keep reading the moments of their own
// window — the memo lives on the epoch's DataMatrix, the consumers of that
// window (engine, kernel mirror) share the one object, and nothing an Advance
// does to later windows reaches it.  Run with -race.
func TestPinnedEpochReadsItsOwnWindowMoments(t *testing.T) {
	const n, window, slide, rounds, readers = 18, 48, 2, 8, 4
	fx := makeStreamFixture(t, n, window, slide*rounds, 67)
	e, err := Build(fx.window, Config{
		Clusters: 3, Seed: 5, Parallelism: 2,
		Stream: StreamConfig{DriftBound: 0.5, StatsRefreshEvery: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		v := e.View()
		start := make(chan struct{})
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				mo := v.Data().Moments()
				_, kmo, err := v.naive.Kernel()
				if err != nil {
					errs[r] = err
					return
				}
				if kmo != mo {
					errs[r] = fmt.Errorf("epoch %d: the kernel mirror reads another reduction than the window's", v.epoch)
					return
				}
				for id := 0; id < n; id++ {
					s, _ := v.Data().Series(timeseries.SeriesID(id))
					variance, _ := measure.VarianceOf(s)
					if mo.Sum[id] != measure.SumOf(s) || mo.Variance[id] != variance {
						errs[r] = fmt.Errorf("epoch %d series %d: pinned moments are not its window's", v.epoch, id)
						return
					}
				}
			}()
		}
		close(start)
		appendTicks(t, e, fx.ticks[round*slide:(round+1)*slide])
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("round %d reader %d: %v", round, r, err)
			}
		}
		if next := e.View(); next.Data().Moments() == v.Data().Moments() {
			t.Fatalf("round %d: the new epoch inherited the old window's moments", round)
		}
	}
}

// TestHeldEpochOutlivesCompactions: a reader holds one epoch — its window, a
// view into a slab the next slides write past, and one answer of each door —
// while the writer advances far enough for the window to be compacted into a
// fresh slab at least three times.  Every sample, the moments, the median and
// mode read off the held window, and every answer re-run on the held epoch
// must keep the bits of a Clone and of the answers taken when it was
// captured.  Run with -race.
func TestHeldEpochOutlivesCompactions(t *testing.T) {
	const n, window, slide = 14, 48, 2
	// A slab leaves H = max(window/4, slide) samples of headroom: ⌊H/slide⌋
	// slides run in place, and the next one compacts.
	headroom := max(window/4, slide)
	rounds := 3*(headroom/slide+1) + 1
	for _, parallelism := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", parallelism), func(t *testing.T) {
			fx := makeStreamFixture(t, n, window, slide*(rounds+2), 29)
			e, err := Build(fx.window, Config{
				Clusters: 3, Seed: 9, Parallelism: parallelism,
				Stream: StreamConfig{DriftBound: 0.05},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Two warm epochs: the held window is a slid view at a non-zero
			// offset into the slab the next slides run in place in.
			for r := 0; r < 2; r++ {
				appendTicks(t, e, fx.ticks[r*slide:(r+1)*slide])
				if _, err := e.Advance(); err != nil {
					t.Fatal(err)
				}
			}
			held := e.View()
			d := held.Data()
			if vals, _, off := d.Slab(); vals == nil || off == 0 {
				t.Fatalf("the held window is not a shifted slab view (offset %d)", off)
			}
			clone := d.Clone()
			ids := d.IDs()
			specs := []plan.QuerySpec{
				plan.Interval(measure.Correlation, interval.GreaterThan(0.5)),
				plan.TopK(measure.Covariance, 7, true),
			}
			type answers struct {
				rows     [][]QueryResult
				location [][]float64
				pairwise [][][]float64
			}
			methods := []Method{MethodNaive, MethodAffine, MethodIndex}
			ask := func() (answers, error) {
				var a answers
				for _, method := range methods {
					rows, _, err := Run(held, specs, method, false)
					if err != nil {
						return a, err
					}
					var loc []float64
					var pw [][]float64
					if method != MethodIndex { // the index answers no MEC
						mec, _, err := Run(held, []plan.QuerySpec{
							ComputeSpec(measure.Median, ids), ComputeSpec(measure.Correlation, ids[:5]),
						}, method, false)
						if err != nil {
							return a, err
						}
						loc, pw = mec[0].Values, mec[1].Matrix
					}
					a.rows, a.location, a.pairwise = append(a.rows, rows), append(a.location, loc), append(a.pairwise, pw)
				}
				return a, nil
			}
			want, err := ask()
			if err != nil {
				t.Fatal(err)
			}
			wantMoments := clone.Moments()

			// check returns the first difference between the held epoch and
			// what was captured, or nil.
			check := func() error {
				mo := d.Moments()
				for _, id := range ids {
					got, _ := d.Series(id)
					orig, _ := clone.Series(id)
					if !slices.Equal(bitsOf(got), bitsOf(orig)) {
						return fmt.Errorf("series %d changed under the held epoch", id)
					}
					if !slices.Equal(bitsOf([]float64{mo.Sum[id], mo.Mean[id], mo.Variance[id], mo.SqNorm[id]}),
						bitsOf([]float64{wantMoments.Sum[id], wantMoments.Mean[id], wantMoments.Variance[id], wantMoments.SqNorm[id]})) {
						return fmt.Errorf("moments of series %d changed under the held epoch", id)
					}
					for _, m := range []measure.Measure{measure.Median, measure.Mode} {
						got, err := d.Location(m, id)
						if err != nil {
							return err
						}
						orig, _ := clone.Location(m, id)
						if math.Float64bits(got) != math.Float64bits(orig) {
							return fmt.Errorf("%v of series %d: %v on the held window, %v on its clone", m, id, got, orig)
						}
					}
				}
				again, err := ask()
				if err != nil {
					return err
				}
				for i, method := range methods {
					for q := range specs {
						if !sameResult(again.rows[i][q], want.rows[i][q]) {
							return fmt.Errorf("%v %v: the answer changed under the held epoch", method, specs[q])
						}
					}
					if !slices.Equal(bitsOf(again.location[i]), bitsOf(want.location[i])) {
						return fmt.Errorf("%v location: the answer changed under the held epoch", method)
					}
					for r := range want.pairwise[i] {
						if !slices.Equal(bitsOf(again.pairwise[i][r]), bitsOf(want.pairwise[i][r])) {
							return fmt.Errorf("%v pairwise row %d: the answer changed under the held epoch", method, r)
						}
					}
				}
				return nil
			}

			var stop atomic.Bool
			var passes atomic.Int64
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if err := check(); err != nil {
							t.Error(err)
							return
						}
						passes.Add(1)
					}
				}()
			}
			slabs := map[*float64]bool{}
			for r := 2; r < rounds+2; r++ {
				appendTicks(t, e, fx.ticks[r*slide:(r+1)*slide])
				if _, err := e.Advance(); err != nil {
					t.Fatal(err)
				}
				vals, _, _ := e.Data().Slab()
				slabs[&vals[0]] = true
			}
			stop.Store(true)
			wg.Wait()
			if err := check(); err != nil {
				t.Fatal(err)
			}
			heldSlab, _, _ := d.Slab()
			delete(slabs, &heldSlab[0])
			if len(slabs) < 3 {
				t.Fatalf("%d compactions under the held epoch, want at least 3", len(slabs))
			}
			t.Logf("%d reader passes over %d epochs and %d compactions", passes.Load(), rounds, len(slabs))
		})
	}
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// sameResult reports whether two answers carry the same entries in the same
// order and the same value bits.
func sameResult(a, b QueryResult) bool {
	return slices.Equal(a.Series, b.Series) && slices.Equal(a.Pairs, b.Pairs) &&
		(a.Values == nil) == (b.Values == nil) && slices.Equal(bitsOf(a.Values), bitsOf(b.Values))
}
