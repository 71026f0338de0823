package shard

import (
	"fmt"
	"testing"

	"affinity/internal/core"
	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/timeseries"
)

// This file pins the coordinator's central contract: at any shard count and
// any parallelism, every query — interval, top-k, batch and MEC, under every
// method including MethodAuto — returns byte-identical results to a single
// unsharded engine, across a cold build plus streaming Advances.  Results are
// compared with %v formatting, which preserves order, tie-breaks and exact
// float bits.

// shardCounts × parallelismLevels are the grid every run is compared across.
var (
	shardCounts       = []int{1, 2, 4}
	parallelismLevels = []int{1, 2, 8}
)

type shardFixture struct {
	window *timeseries.DataMatrix
	ticks  [][]float64
}

func makeShardFixture(t testing.TB, n, window, streamLen int, seed int64) *shardFixture {
	t.Helper()
	full, err := dataset.GenerateSensor(dataset.SensorConfig{
		NumSeries:  n,
		NumSamples: window + streamLen,
		NumGroups:  4,
		Noise:      0.02,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	init, err := full.Window(0, window)
	if err != nil {
		t.Fatal(err)
	}
	ticks := make([][]float64, streamLen)
	for s := 0; s < streamLen; s++ {
		tick := make([]float64, n)
		for v := 0; v < n; v++ {
			series, err := full.Series(timeseries.SeriesID(v))
			if err != nil {
				t.Fatal(err)
			}
			tick[v] = series[window+s]
		}
		ticks[s] = tick
	}
	return &shardFixture{window: init, ticks: ticks}
}

// render collapses a result/error pair into one comparable string.
func render(res any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v", res)
}

// runSpecs answers a batch of specs through the shared pipeline against one
// backend epoch: an engine's View or a coordinator's state.
func runSpecs(b core.Backend, specs []plan.QuerySpec, method core.Method) ([]core.QueryResult, error) {
	out, _, err := core.Run(b, specs, method, false)
	return out, err
}

// shardQueryCase is one table entry of the sharded determinism harness.
type shardQueryCase struct {
	name   string
	engine func(e *core.Engine) (any, error)
	coord  func(c *Coordinator) (any, error)
}

// shardDeterminismCases enumerates the full query surface across all
// registered measures and methods.
func shardDeterminismCases() []shardQueryCase {
	var cases []shardQueryCase
	methods := []core.Method{core.MethodNaive, core.MethodAffine, core.MethodIndex, core.MethodAuto}
	mecIDs := []timeseries.SeriesID{3, 1, 7, 0, 12}
	for _, m := range measure.All() {
		m := m
		for _, method := range methods {
			method := method
			cases = append(cases,
				shardQueryCase{
					name: fmt.Sprintf("threshold/%v/%v", m, method),
					engine: func(e *core.Engine) (any, error) {
						return e.Interval(m, interval.GreaterThan(0.25), method)
					},
					coord: func(c *Coordinator) (any, error) {
						return c.Interval(m, interval.GreaterThan(0.25), method)
					},
				},
				shardQueryCase{
					name: fmt.Sprintf("range/%v/%v", m, method),
					engine: func(e *core.Engine) (any, error) {
						return e.Interval(m, interval.Between(-0.5, 0.9), method)
					},
					coord: func(c *Coordinator) (any, error) {
						return c.Interval(m, interval.Between(-0.5, 0.9), method)
					},
				},
				shardQueryCase{
					name: fmt.Sprintf("topk-largest/%v/%v", m, method),
					engine: func(e *core.Engine) (any, error) {
						return e.TopK(m, 4, true, method)
					},
					coord: func(c *Coordinator) (any, error) {
						return c.TopK(m, 4, true, method)
					},
				},
				shardQueryCase{
					name: fmt.Sprintf("topk-smallest/%v/%v", m, method),
					engine: func(e *core.Engine) (any, error) {
						return e.TopK(m, 3, false, method)
					},
					coord: func(c *Coordinator) (any, error) {
						return c.TopK(m, 3, false, method)
					},
				},
			)
		}
		for _, method := range []core.Method{core.MethodNaive, core.MethodAffine, core.MethodAuto} {
			method := method
			if sp, ok := measure.Find(m); ok && sp.Location() {
				cases = append(cases, shardQueryCase{
					name: fmt.Sprintf("mec-location/%v/%v", m, method),
					engine: func(e *core.Engine) (any, error) {
						return e.ComputeLocation(m, mecIDs, method)
					},
					coord: func(c *Coordinator) (any, error) {
						return c.ComputeLocation(m, mecIDs, method)
					},
				})
			} else {
				cases = append(cases, shardQueryCase{
					name: fmt.Sprintf("mec-pairwise/%v/%v", m, method),
					engine: func(e *core.Engine) (any, error) {
						return e.ComputePairwise(m, mecIDs, method)
					},
					coord: func(c *Coordinator) (any, error) {
						return c.ComputePairwise(m, mecIDs, method)
					},
				})
			}
		}
	}
	// Batched queries: per-item results must equal their single-query twins,
	// so comparing the whole batch against the engine's batch suffices.
	batchMeasures := []measure.Measure{measure.Correlation, measure.Covariance, measure.Mean, measure.Cosine}
	for _, method := range methods {
		method := method
		cases = append(cases,
			shardQueryCase{
				name: fmt.Sprintf("batch-interval/%v", method),
				engine: func(e *core.Engine) (any, error) {
					var qs []plan.QuerySpec
					for _, m := range batchMeasures {
						qs = append(qs, plan.Interval(m, interval.GreaterThan(0.3)))
					}
					return runSpecs(e.View(), qs, method)
				},
				coord: func(c *Coordinator) (any, error) {
					var qs []plan.QuerySpec
					for _, m := range batchMeasures {
						qs = append(qs, plan.Interval(m, interval.GreaterThan(0.3)))
					}
					return runSpecs(c.state(), qs, method)
				},
			},
			shardQueryCase{
				name: fmt.Sprintf("batch-topk/%v", method),
				engine: func(e *core.Engine) (any, error) {
					var qs []plan.QuerySpec
					for _, m := range batchMeasures {
						qs = append(qs, plan.TopK(m, 5, true))
					}
					return runSpecs(e.View(), qs, method)
				},
				coord: func(c *Coordinator) (any, error) {
					var qs []plan.QuerySpec
					for _, m := range batchMeasures {
						qs = append(qs, plan.TopK(m, 5, true))
					}
					return runSpecs(c.state(), qs, method)
				},
			},
		)
	}
	// One scatter per batch: the coordinator answers the index-method interval
	// items of a batch in one fan-out, and every item must equal — pair for
	// pair — the single engine's answer to the same query asked on its own
	// (the threshold/range cases above pin the coordinator's single answers to
	// the same baseline).  The batch includes results that are empty after a
	// scan and empty by the measure's declared range.
	for _, method := range []core.Method{core.MethodIndex, core.MethodAuto} {
		method := method
		cases = append(cases, shardQueryCase{
			name: fmt.Sprintf("batch-vs-singles/%v", method),
			engine: func(e *core.Engine) (any, error) {
				qs := scatterBatch()
				out := make([]core.QueryResult, len(qs))
				for i, q := range qs {
					var err error
					if out[i], err = e.Interval(q.Measure, q.Interval, method); err != nil {
						return nil, err
					}
				}
				return out, nil
			},
			coord: func(c *Coordinator) (any, error) {
				return c.IntervalBatch(scatterBatch(), method)
			},
		})
	}
	// A batch whose items resolve to every execution path at once: index
	// interval scans, a sweep (Jaccard is not indexable), index and swept
	// top-k, and L-measure items — each group scattered once, results back in
	// request order.
	cases = append(cases, shardQueryCase{
		name:   "batch-mixed/auto",
		engine: func(e *core.Engine) (any, error) { return runSpecs(e.View(), mixedBatch(), core.MethodAuto) },
		coord:  func(c *Coordinator) (any, error) { return runSpecs(c.state(), mixedBatch(), core.MethodAuto) },
	})
	// Auto plan parity: the coordinator's global plan must make the same
	// choice with the same estimates as the single engine at any shard count.
	for _, m := range []measure.Measure{measure.Correlation, measure.Covariance, measure.Mean, measure.Jaccard} {
		m := m
		cases = append(cases, shardQueryCase{
			name: fmt.Sprintf("plan/%v", m),
			engine: func(e *core.Engine) (any, error) {
				_, p, err := e.Explain(plan.Interval(m, interval.GreaterThan(0.25)), core.MethodAuto)
				if err != nil {
					return nil, err
				}
				return comparablePlan(p), nil
			},
			coord: func(c *Coordinator) (any, error) {
				_, plans, err := core.Run(c.state(), []plan.QuerySpec{plan.Interval(m, interval.GreaterThan(0.25))}, core.MethodAuto, true)
				if err != nil {
					return nil, err
				}
				return comparablePlan(plans[0]), nil
			},
		})
	}
	return cases
}

// comparablePlan renders every field of a plan — not only those Plan's String
// prints — but its wall time, its cache actuals and who filled the epoch's
// base column, which are run-dependent (the cached harness legitimately
// reports a tier, and sweeps nothing, on repeat passes): plan parity modulo
// those fields is what the plan cases pin.
func comparablePlan(p plan.Plan) string {
	p.Duration, p.CacheTier, p.CacheRepairedPairs, p.BaseValues = 0, "", 0, ""
	type fields plan.Plan // without Plan's String method
	return fmt.Sprintf("%+v", fields(p))
}

// scatterBatch is the interval batch of the batch-vs-singles cases: selective,
// wide, two-sided and decreasing-measure predicates, one that matches nothing
// after scanning and one outside correlation's declared range.
func scatterBatch() []core.IntervalQuery {
	return []core.IntervalQuery{
		{Measure: measure.Correlation, Interval: interval.GreaterThan(0.9)},
		{Measure: measure.Covariance, Interval: interval.Between(-0.5, 0.9)},
		{Measure: measure.Covariance, Interval: interval.GreaterThan(1e9)},
		{Measure: measure.EuclideanDistance, Interval: interval.LessThan(3)},
		{Measure: measure.Correlation, Interval: interval.GreaterThan(2)},
		{Measure: measure.Cosine, Interval: interval.AtLeast(0.25)},
		{Measure: measure.DotProduct, Interval: interval.All()},
	}
}

// mixedBatch is the spec list of the batch-mixed case.
func mixedBatch() []plan.QuerySpec {
	return []plan.QuerySpec{
		plan.Interval(measure.Correlation, interval.GreaterThan(0.95)),
		plan.Interval(measure.Jaccard, interval.GreaterThan(0.3)),
		plan.TopK(measure.Correlation, 5, true),
		plan.Interval(measure.Mean, interval.GreaterThan(0.1)),
		plan.Interval(measure.Covariance, interval.Between(0.05, 0.1)),
		plan.TopK(measure.Jaccard, 4, false),
		plan.TopK(measure.Median, 3, true),
		plan.Interval(measure.EuclideanDistance, interval.LessThan(1)),
	}
}

// runShardDeterminism builds the baseline engine plus the S×P coordinator
// grid on identical data, advances everything in lockstep (cold build + 3
// Advances), and asserts every query case agrees at every epoch.
func runShardDeterminism(t *testing.T, cfg core.Config) {
	t.Helper()
	runShardDeterminismSplit(t, cfg, cfg, 1, false)
}

// runShardDeterminismSplit is the harness core: the baseline engine runs
// baseCfg, the coordinators run coordCfg, and every epoch's battery is issued
// `passes` times against each coordinator.  A second pass turns every query
// into a cache-hit candidate when coordCfg enables the result cache, so the
// cached answers are compared against the cold baseline too.  With cold set
// the baseline is not streamed: every epoch it is built afresh on the slid
// window over the coordinators' frozen clustering.
func runShardDeterminismSplit(t *testing.T, baseCfg, coordCfg core.Config, passes int, cold bool) {
	t.Helper()
	const n, window, rounds, slide = 20, 90, 3, 5

	type coordEntry struct {
		name   string
		shards int
		c      *Coordinator
	}

	// Baseline: one unsharded engine.
	fx := makeShardFixture(t, n, window, rounds*slide, 7)
	baseCfg.Parallelism = 1
	baseline, err := core.Build(fx.window, baseCfg)
	if err != nil {
		t.Fatalf("baseline build: %v", err)
	}

	var coords []coordEntry
	for _, s := range shardCounts {
		for _, p := range parallelismLevels {
			cFx := makeShardFixture(t, n, window, rounds*slide, 7)
			eCfg := coordCfg
			eCfg.Parallelism = p
			c, err := Build(cFx.window, Config{Shards: s, Engine: eCfg})
			if err != nil {
				t.Fatalf("S=%d P=%d build: %v", s, p, err)
			}
			coords = append(coords, coordEntry{name: fmt.Sprintf("S=%d/P=%d", s, p), shards: s, c: c})
		}
	}

	cases := shardDeterminismCases()
	check := func(epochName string) {
		t.Helper()
		for _, qc := range cases {
			want := render(qc.engine(baseline))
			for _, ce := range coords {
				for pass := 0; pass < passes; pass++ {
					got := render(qc.coord(ce.c))
					if got != want {
						t.Fatalf("%s %s: %s pass %d diverged from baseline\nbaseline: %.300s\n%s: %.300s",
							epochName, qc.name, ce.name, pass, want, ce.name, got)
					}
				}
			}
		}
	}

	check("epoch0")
	slid := fx.window
	for r := 0; r < rounds; r++ {
		ticks := fx.ticks[r*slide : (r+1)*slide]
		if cold {
			batch := make([][]float64, n)
			for v := range batch {
				batch[v] = make([]float64, slide)
				for s, tick := range ticks {
					batch[v][s] = tick[v]
				}
			}
			if slid, err = slid.SlideCopy(batch); err != nil {
				t.Fatal(err)
			}
			frozenCfg := baseCfg
			frozenCfg.Clustering = baseline.Relationships().Clustering
			if baseline, err = core.Build(slid, frozenCfg); err != nil {
				t.Fatalf("baseline cold build %d: %v", r, err)
			}
		} else {
			for _, tick := range ticks {
				if err := baseline.Append(tick); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := baseline.Advance(); err != nil {
				t.Fatalf("baseline advance %d: %v", r, err)
			}
		}
		for _, ce := range coords {
			for _, tick := range ticks {
				if err := ce.c.Append(tick); err != nil {
					t.Fatal(err)
				}
			}
			info, err := ce.c.Advance()
			if err != nil {
				t.Fatalf("%s advance %d: %v", ce.name, r, err)
			}
			if info.Epoch != r+1 || info.Slide != slide {
				t.Fatalf("%s advance %d: info %+v", ce.name, r, info)
			}
			if ce.c.Epoch() != r+1 {
				t.Fatalf("%s epoch %d, want %d", ce.name, ce.c.Epoch(), r+1)
			}
		}
		check(fmt.Sprintf("epoch%d", r+1))
	}
	// Every shard engine keeps its own base columns, whatever the coordinator's
	// cache does: at most one fill per shard, base and epoch.
	for _, ce := range coords {
		ss := ce.c.StreamStats()
		if most := int64(2 * ce.shards * (rounds + 1)); ss.SweepBaseFills == 0 || ss.SweepBaseFills > most || ss.SweepBaseReuses == 0 {
			t.Fatalf("%s: %d base-column fills (want 1…%d), %d reuses", ce.name, ss.SweepBaseFills, most, ss.SweepBaseReuses)
		}
	}
}

func TestShardedDeterminism(t *testing.T) {
	runShardDeterminism(t, core.Config{Clusters: 4, Seed: 5})
}

func TestShardedDeterminismDrift(t *testing.T) {
	// A positive drift bound makes shard refits partial (per-shard stale
	// sets); their union must still equal the baseline's refit.
	runShardDeterminism(t, core.Config{
		Clusters: 4, Seed: 5,
		Stream: core.StreamConfig{DriftBound: 0.05},
	})
}

func TestShardedDeterminismCached(t *testing.T) {
	// The coordinators enable the result cache while the baseline stays cold;
	// every query runs twice per epoch so the second pass is served from the
	// cache (exact hit, containment, or post-Advance repair) and must still be
	// byte-identical to the cold baseline.  The drift bound keeps the stale
	// sets partial so the repair path is reachable across Advances.
	cold := core.Config{
		Clusters: 4, Seed: 5,
		Stream: core.StreamConfig{DriftBound: 0.5},
	}
	cached := cold
	cached.Cache = qcache.Options{Enabled: true}
	runShardDeterminismSplit(t, cold, cached, 2, false)
}
