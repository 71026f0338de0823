package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/timeseries"
)

// This file pins the shared query pipeline (core.Run) once, over every door
// that leads into it: a single engine's sugar, a pinned View, and
// coordinators at S=1 and S=2.  One table of malformed and edge specs and one
// batch ≡ single property replace the per-type copies the engine and the
// coordinator used to enumerate separately.

// door is one way into the pipeline: specs in, results out.
type door struct {
	name string
	run  func(specs []plan.QuerySpec, method core.Method, wantPlans bool) ([]core.QueryResult, error)
}

// surface is the named sugar core.Engine and Coordinator share.
type surface interface {
	Interval(m measure.Measure, iv interval.Interval, method core.Method) (core.QueryResult, error)
	TopK(m measure.Measure, k int, largest bool, method core.Method) (core.QueryResult, error)
	IntervalBatch(qs []core.IntervalQuery, method core.Method) ([]core.QueryResult, error)
}

// sugarDoor routes every request shape that has named sugar through it —
// single interval/top-k, interval-only batches, a single explained query (the
// engine's Explain; core.Run with plans on a coordinator epoch) — and the rest
// (mixed batches, batched plans) through core.Run on the backend.
func sugarDoor(name string, s surface, explain func(plan.QuerySpec, core.Method) (core.QueryResult, error),
	backend func() core.Backend) door {
	return door{name: name, run: func(specs []plan.QuerySpec, method core.Method, wantPlans bool) ([]core.QueryResult, error) {
		one := func(r core.QueryResult, err error) ([]core.QueryResult, error) {
			if err != nil {
				return nil, err
			}
			return []core.QueryResult{r}, nil
		}
		intervalOnly := true
		for _, spec := range specs {
			intervalOnly = intervalOnly && spec.Kind == plan.KindInterval
		}
		switch {
		case len(specs) == 1 && wantPlans:
			return one(explain(specs[0], method))
		case len(specs) == 1 && specs[0].Kind == plan.KindInterval:
			return one(s.Interval(specs[0].Measure, specs[0].Interval, method))
		case len(specs) == 1 && specs[0].Kind == plan.KindTopK:
			return one(s.TopK(specs[0].Measure, specs[0].K, specs[0].Largest, method))
		case intervalOnly && !wantPlans:
			qs := make([]core.IntervalQuery, len(specs))
			for i, spec := range specs {
				qs[i] = core.IntervalQuery{Measure: spec.Measure, Interval: spec.Interval}
			}
			return s.IntervalBatch(qs, method)
		}
		out, _, err := core.Run(backend(), specs, method, wantPlans)
		return out, err
	}}
}

// pipelineDoors builds the four doors over identical data.
func pipelineDoors(t *testing.T, cfg core.Config) []door {
	t.Helper()
	e, c1 := buildFixturePair(t, 1, cfg)
	_, c2 := buildFixturePair(t, 2, cfg)
	coordDoor := func(c *Coordinator) door {
		return sugarDoor(fmt.Sprintf("Coordinator S=%d", c.NumShards()), c,
			func(spec plan.QuerySpec, method core.Method) (core.QueryResult, error) {
				out, _, err := core.Run(c.state(), []plan.QuerySpec{spec}, method, true)
				if err != nil {
					return core.QueryResult{}, err
				}
				return out[0], nil
			},
			func() core.Backend { return c.state() })
	}
	return []door{
		sugarDoor("Engine", e,
			func(spec plan.QuerySpec, method core.Method) (core.QueryResult, error) {
				res, _, err := e.Explain(spec, method)
				return res, err
			},
			func() core.Backend { return e.View() }),
		{name: "View", run: func(specs []plan.QuerySpec, method core.Method, wantPlans bool) ([]core.QueryResult, error) {
			out, _, err := core.Run(e.View(), specs, method, wantPlans)
			return out, err
		}},
		coordDoor(c1),
		coordDoor(c2),
	}
}

var allMethods = []core.Method{core.MethodNaive, core.MethodAffine, core.MethodIndex, core.MethodAuto}

// TestPipelineSpecTable runs every malformed or edge spec through every door
// three ways — alone, behind a valid spec in a batch, and explained — and
// requires the same typed error (or, for the rows that must answer, the same
// result) everywhere.
func TestPipelineSpecTable(t *testing.T) {
	cfg := core.Config{Clusters: 4, Seed: 5}
	noIndex := cfg
	noIndex.SkipIndex = true
	indexed, indexless := pipelineDoors(t, cfg), pipelineDoors(t, noIndex)

	only := func(ms ...core.Method) []core.Method { return ms }
	mecIDs := []timeseries.SeriesID{5, 1, 5, 9}
	rows := []struct {
		name    string
		doors   []door
		spec    plan.QuerySpec
		methods []core.Method
		want    error // nil: the query must answer, identically through every door
		anyErr  bool  // the failure carries no typed sentinel
	}{
		{name: "empty range", doors: indexed, spec: plan.Interval(measure.Correlation, interval.Between(1, -1)), methods: allMethods, want: core.ErrEmptyRange},
		{name: "empty half-open interval", doors: indexed, methods: allMethods, want: core.ErrEmptyRange,
			spec: plan.Interval(measure.Correlation, interval.New(interval.Open(1), interval.Closed(1)))},
		{name: "empty L-measure range", doors: indexed, spec: plan.Interval(measure.Mean, interval.Between(1, -1)), methods: allMethods, want: core.ErrEmptyRange},
		{name: "k = 0", doors: indexed, spec: plan.TopK(measure.Correlation, 0, true), methods: allMethods, want: core.ErrBadTopK},
		{name: "k < 0, L-measure", doors: indexed, spec: plan.TopK(measure.Mean, -3, false), methods: allMethods, want: core.ErrBadTopK},
		{name: "no query kind", doors: indexed, spec: plan.QuerySpec{Kind: plan.Kind(99), Measure: measure.Correlation}, methods: allMethods, anyErr: true},
		{name: "MEC via index", doors: indexed, spec: core.ComputeSpec(measure.Correlation, mecIDs), methods: only(core.MethodIndex), want: core.ErrBadMethod},
		{name: "L-measure MEC via index", doors: indexed, spec: core.ComputeSpec(measure.Median, mecIDs), methods: only(core.MethodIndex), want: core.ErrBadMethod},
		{name: "MEC over a series outside the window", doors: indexed, spec: core.ComputeSpec(measure.Covariance, []timeseries.SeriesID{0, 999}),
			methods: only(core.MethodNaive, core.MethodAffine, core.MethodAuto), want: timeseries.ErrInvalidSeries},
		{name: "MEC, sweeps and auto", doors: indexed, spec: core.ComputeSpec(measure.Correlation, mecIDs), methods: only(core.MethodNaive, core.MethodAffine, core.MethodAuto)},
		{name: "L-measure MEC, sweeps and auto", doors: indexed, spec: core.ComputeSpec(measure.Median, mecIDs), methods: only(core.MethodNaive, core.MethodAffine, core.MethodAuto)},
		{name: "bad method, interval", doors: indexed, spec: plan.Interval(measure.Correlation, interval.GreaterThan(0.5)), methods: only(core.Method(42)), want: core.ErrBadMethod},
		{name: "bad method, top-k", doors: indexed, spec: plan.TopK(measure.Correlation, 3, true), methods: only(core.Method(42)), want: core.ErrBadMethod},
		{name: "bad method, L-measure", doors: indexed, spec: plan.Interval(measure.Mean, interval.GreaterThan(0.1)), methods: only(core.Method(-1)), want: core.ErrBadMethod},
		{name: "jaccard via index", doors: indexed, spec: plan.Interval(measure.Jaccard, interval.GreaterThan(0.5)), methods: only(core.MethodIndex), want: core.ErrMeasureNotIndexed},
		{name: "jaccard range via index", doors: indexed, spec: plan.Interval(measure.Jaccard, interval.Between(0, 1)), methods: only(core.MethodIndex), want: core.ErrMeasureNotIndexed},
		{name: "jaccard top-k via index", doors: indexed, spec: plan.TopK(measure.Jaccard, 3, true), methods: only(core.MethodIndex), want: core.ErrMeasureNotIndexed},
		{name: "jaccard via the sweeps and auto", doors: indexed, spec: plan.Interval(measure.Jaccard, interval.GreaterThan(0.5)),
			methods: only(core.MethodNaive, core.MethodAffine, core.MethodAuto)},
		{name: "no index, interval", doors: indexless, spec: plan.Interval(measure.Correlation, interval.GreaterThan(0.25)), methods: only(core.MethodIndex), want: core.ErrNoIndex},
		{name: "no index, top-k", doors: indexless, spec: plan.TopK(measure.Correlation, 3, true), methods: only(core.MethodIndex), want: core.ErrNoIndex},
		{name: "no index, L-measure interval", doors: indexless, spec: plan.Interval(measure.Mean, interval.GreaterThan(0.1)), methods: only(core.MethodIndex), want: core.ErrNoIndex},
		{name: "no index, L-measure top-k", doors: indexless, spec: plan.TopK(measure.Mean, 3, true), methods: only(core.MethodIndex), want: core.ErrNoIndex},
		{name: "no index, sweeps and auto answer", doors: indexless, spec: plan.Interval(measure.Correlation, interval.GreaterThan(0.25)),
			methods: only(core.MethodNaive, core.MethodAffine, core.MethodAuto)},
		{name: "L-measure interval, every method", doors: indexed, spec: plan.Interval(measure.Mean, interval.GreaterThan(0.1)), methods: allMethods},
		{name: "L-measure range, every method", doors: indexed, spec: plan.Interval(measure.Median, interval.Between(-0.5, 0.5)), methods: allMethods},
		{name: "L-measure top-k, every method", doors: indexed, spec: plan.TopK(measure.Mode, 4, false), methods: allMethods},
	}

	valid := plan.Interval(measure.Covariance, interval.GreaterThan(0))
	for _, row := range rows {
		for _, method := range row.methods {
			var reference string
			for _, d := range row.doors {
				shapes := []struct {
					name      string
					specs     []plan.QuerySpec
					wantPlans bool
				}{
					{"single", []plan.QuerySpec{row.spec}, false},
					{"batched", []plan.QuerySpec{valid, row.spec}, false},
					{"explained", []plan.QuerySpec{row.spec}, true},
					{"batch-explained", []plan.QuerySpec{valid, row.spec}, true},
				}
				for _, shape := range shapes {
					out, err := d.run(shape.specs, method, shape.wantPlans)
					label := fmt.Sprintf("%s / %v / %s / %s", row.name, method, d.name, shape.name)
					switch {
					case row.anyErr:
						if err == nil {
							t.Errorf("%s: accepted", label)
						}
					case row.want != nil:
						if !errors.Is(err, row.want) {
							t.Errorf("%s: err = %v, want %v", label, err, row.want)
						}
					case err != nil:
						t.Errorf("%s: %v", label, err)
					default:
						got := fmt.Sprintf("%v", out[len(out)-1])
						if reference == "" {
							reference = got
						}
						if got != reference {
							t.Errorf("%s: %.200s, want %.200s", label, got, reference)
						}
					}
				}
			}
		}
	}

	// MEC resolves its method through the same planner and rejects the same
	// way at any shard count.
	e, c := buildFixturePair(t, 2, cfg)
	for name, batch := range map[string]func([]plan.QuerySpec, core.Method) ([]core.QueryResult, error){
		"Engine": e.Batch, "Coordinator S=2": c.Batch,
	} {
		if _, err := batch([]plan.QuerySpec{core.ComputeSpec(measure.Mean, nil)}, core.Method(42)); !errors.Is(err, core.ErrBadMethod) {
			t.Errorf("%s: MEC with a bogus method: %v", name, err)
		}
		if _, err := batch([]plan.QuerySpec{core.ComputeSpec(measure.Correlation, nil)}, core.MethodIndex); !errors.Is(err, core.ErrBadMethod) {
			t.Errorf("%s: pairwise MEC via the index: %v", name, err)
		}
		if _, err := batch([]plan.QuerySpec{core.ComputeSpec(measure.Mean, nil)}, core.MethodIndex); !errors.Is(err, core.ErrBadMethod) {
			t.Errorf("%s: location MEC via the index: %v", name, err)
		}
	}
}

// TestPipelineBatchEqualsSingle is the pipeline's central property: through
// every door and under every method, a mixed batch of interval, top-k and
// (where the method answers them) MEC specs answers each item exactly as the
// single query does — explained or not — and every door agrees with the
// plain engine.
func TestPipelineBatchEqualsSingle(t *testing.T) {
	doors := pipelineDoors(t, core.Config{Clusters: 4, Seed: 5, Parallelism: 2})
	for _, method := range allMethods {
		var specs []plan.QuerySpec
		for _, m := range []measure.Measure{measure.Correlation, measure.Covariance, measure.Cosine,
			measure.Jaccard, measure.EuclideanDistance, measure.Mean, measure.Median} {
			if method == core.MethodIndex && m == measure.Jaccard {
				continue // not indexable
			}
			specs = append(specs,
				plan.Interval(m, interval.GreaterThan(0.3)),
				plan.Interval(m, interval.LessThan(0.7)),
				plan.Interval(m, interval.Between(-0.4, 0.8)),
				plan.TopK(m, 3, true),
				plan.TopK(m, 9, false),
			)
			if method != core.MethodIndex {
				specs = append(specs, core.ComputeSpec(m, []timeseries.SeriesID{4, 0, 7}))
			}
		}
		var reference []core.QueryResult
		for _, d := range doors {
			batch, err := d.run(specs, method, false)
			if err != nil {
				t.Fatalf("%v %s: batch: %v", method, d.name, err)
			}
			explained, err := d.run(specs, method, true)
			if err != nil {
				t.Fatalf("%v %s: explained batch: %v", method, d.name, err)
			}
			if reference == nil {
				reference = batch
			}
			for i, spec := range specs {
				single, err := d.run(specs[i:i+1], method, false)
				if err != nil {
					t.Fatalf("%v %s: %v alone: %v", method, d.name, spec, err)
				}
				want := fmt.Sprintf("%v", single[0])
				for what, got := range map[string]core.QueryResult{
					"batch": batch[i], "explained batch": explained[i], "the engine's batch": reference[i],
				} {
					if s := fmt.Sprintf("%v", got); s != want {
						t.Errorf("%v %s: %v: %s %.160s != single %.160s", method, d.name, spec, what, s, want)
					}
				}
			}
		}
	}
}

// TestCoordinatorBatchPinsOneEpoch: every item of a coordinator's Batch is
// answered from one epoch even while Advance publishes new ones.  A batch
// repeats the same MEC, top-k and interval specs, so its items can only
// differ if the batch straddled an epoch swap.  Run with -race.
func TestCoordinatorBatchPinsOneEpoch(t *testing.T) {
	const rounds, slide = 24, 2
	fx := makeShardFixture(t, 16, 60, rounds*slide, 7)
	c, err := Build(fx.window, Config{Shards: 2, Engine: core.Config{Clusters: 3, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ids := fx.window.IDs()
	kinds := []plan.QuerySpec{
		core.ComputeSpec(measure.Mean, ids),
		core.ComputeSpec(measure.Covariance, ids[:6]),
		plan.TopK(measure.Correlation, 5, true),
		plan.Interval(measure.Covariance, interval.GreaterThan(0)),
	}
	var batch []plan.QuerySpec
	for i := 0; i < 4; i++ {
		batch = append(batch, kinds...)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, method := range []core.Method{core.MethodNaive, core.MethodAffine} {
		wg.Add(1)
		go func(method core.Method) {
			defer wg.Done()
			for batches := 0; ; batches++ {
				select {
				case <-done:
					if batches > 0 {
						return
					}
				default:
				}
				out, err := c.Batch(batch, method)
				if err != nil {
					t.Errorf("%v Batch: %v", method, err)
					return
				}
				for i := len(kinds); i < len(out); i++ {
					if fmt.Sprint(out[i]) != fmt.Sprint(out[i%len(kinds)]) {
						t.Errorf("%v: batch item %d answered from another epoch than item %d", method, i, i%len(kinds))
						return
					}
				}
			}
		}(method)
	}
	var advanceErr error
	for r := 0; r < rounds && advanceErr == nil; r++ {
		for _, tick := range fx.ticks[r*slide : (r+1)*slide] {
			if advanceErr = c.Append(tick); advanceErr != nil {
				break
			}
		}
		if advanceErr == nil {
			_, advanceErr = c.Advance()
		}
	}
	close(done)
	wg.Wait()
	if advanceErr != nil {
		t.Fatal(advanceErr)
	}
}
