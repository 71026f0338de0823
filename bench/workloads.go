package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"affinity/internal/baseline"
	"affinity/internal/core"
	"affinity/internal/dataset"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/qcache"
	"affinity/internal/sketch"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
	"affinity/internal/workload"
)

// workloadSpec is the fixed shape of one workload: what data it streams, how
// the engine is configured, how many trials and rounds a run makes and which
// property of the run (its regime) the workload exists to hold.
type workloadSpec struct {
	name string
	why  string

	stock       bool // stock-data stand-in instead of sensor-data
	n, m, slide int
	// zipfTicks streams internal/workload.TickStream ticks anchored at each
	// series' last window sample; otherwise the stream is the continuation of
	// the dataset generator itself.
	zipfTicks bool

	// A run is trials independent engines; each does warmup untimed rounds and
	// then rounds timed ones.  rounds is the count at the default -seconds and
	// scales with that flag; nothing else about a run depends on time.
	trials, warmup, rounds int

	driftBound float64
	cache      bool
	sketch     bool
	shards     int // 0 builds a single core.Engine

	pass  func(in *passInputs) ([]call, error)
	guard func(g *regime) []string
}

// defaultSeconds is the -seconds value the round counts below are sized for
// (BENCHMARK.json's run_seconds).
const defaultSeconds = 15

func workloads() []workloadSpec {
	steady := workloadSpec{
		name: "stream_steady",
		why:  "paper Fig 12 online environment as a stream: incremental index updates and index scans do the work; sweeps, cache and shards idle",
		n:    168, m: 360, slide: 8,
		trials: 20, warmup: 2, rounds: 8,
		driftBound: 1.0,
		pass:       steadyPass,
		guard: func(g *regime) []string {
			var bad []string
			if share := g.indexUpdateShare(); share < 0.9 {
				bad = append(bad, fmt.Sprintf("incremental index updates %.2f of advances, want >= 0.90", share))
			}
			if g.maxStaleFraction >= 0.2 {
				bad = append(bad, fmt.Sprintf("stale fraction reached %.3f, want < 0.2", g.maxStaleFraction))
			}
			return bad
		},
	}
	sharded := steady
	sharded.name = "sharded_p2"
	sharded.why = "stream_steady through shard.Build with 2 shards: the difference to stream_steady is the scatter-gather cost"
	sharded.shards = 2
	sharded.guard = func(g *regime) []string {
		bad := steady.guard(g)
		if g.numShards != 2 {
			bad = append(bad, fmt.Sprintf("NumShards() = %d, want 2", g.numShards))
		}
		return bad
	}

	return []workloadSpec{
		steady,
		{
			name:  "stream_churn",
			why:   "opposite corner: full refit, full index build, kernel and sketch sweeps do the work; incremental update and cache idle",
			stock: true,
			n:     128, m: 720, slide: 16,
			trials: 8, warmup: 1, rounds: 5,
			driftBound: 0,
			sketch:     true,
			pass:       churnPass,
			guard: func(g *regime) []string {
				var bad []string
				if g.fullRefits != g.advances || g.indexUpdates != 0 {
					bad = append(bad, fmt.Sprintf("%d of %d advances were full refits with %d incremental index updates, want all and 0",
						g.fullRefits, g.advances, g.indexUpdates))
				}
				if g.sketchSweeps == 0 {
					bad = append(bad, "no sweep ran through the sketch prescreen")
				}
				if share := g.sketchAmbiguousShare(); share >= 0.5 {
					bad = append(bad, fmt.Sprintf("sketch ambiguous share %.3f, want < 0.5", share))
				}
				return bad
			},
		},
		{
			name: "serve_cached",
			why:  "reads >> writes at slide 1: fixed per-epoch overhead and the result cache's hit, containment and repair tiers",
			n:    168, m: 360, slide: 1,
			zipfTicks: true,
			trials:    12, warmup: 3, rounds: 13,
			driftBound: 1.0,
			cache:      true,
			pass:       cachedPass,
			guard: func(g *regime) []string {
				var bad []string
				if share := g.cacheHitShare(); share < 0.5 {
					bad = append(bad, fmt.Sprintf("cache hit share %.3f, want >= 0.5", share))
				}
				if g.minContainmentHits < 1 || g.minRepairHits < 1 {
					bad = append(bad, fmt.Sprintf("fewest containment/repair hits in a trial %d/%d, want >= 1 each",
						g.minContainmentHits, g.minRepairHits))
				}
				return bad
			},
		},
		sharded,
	}
}

func findWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scaled returns the spec with its timed round count scaled to seconds, or
// shrunk to the smoke scale the tests run at.
func (w workloadSpec) scaled(seconds int, smoke bool) workloadSpec {
	if smoke {
		w.n, w.m = 48, 96
		w.trials, w.warmup, w.rounds = 1, 1, 3
		if w.slide > 4 {
			w.slide = 4
		}
		return w
	}
	w.rounds = (w.rounds*seconds + defaultSeconds/2) / defaultSeconds
	if w.rounds < 2 {
		w.rounds = 2
	}
	return w
}

// parallelism is the worker count a workload's engine runs with: one driver
// and one worker everywhere except behind the coordinator, and never more
// workers than the box has processors.
func (w workloadSpec) parallelism() int { return workers(w.shards) }

func workers(shards int) int {
	if shards > 1 && runtime.NumCPU() > 1 {
		return 2
	}
	return 1
}

func (w workloadSpec) engineConfig(clusterSeed int64) core.Config {
	return core.Config{
		Seed:        clusterSeed,
		Parallelism: w.parallelism(),
		Stream:      core.StreamConfig{DriftBound: w.driftBound},
		Cache:       qcache.Options{Enabled: w.cache},
		Sketch:      sketch.Options{Enabled: w.sketch, Coefficients: 16},
	}
}

// twinConfig is the cold twin of the verification trial: same clustering and
// stream options, every accelerating tier off, one worker.
func (w workloadSpec) twinConfig(clusterSeed int64) core.Config {
	return core.Config{
		Seed:        clusterSeed,
		Parallelism: 1,
		Stream:      core.StreamConfig{DriftBound: w.driftBound},
	}
}

// trialSeed derives trial t's seed from the run seed, so one run covers
// several datasets and two runs at one seed cover the same ones.
func trialSeed(seed int64, t int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(t+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// trialInputs is everything one trial feeds the engine: the initial window
// and the tick stream.  Generating it is what the dataset and workload layers
// cost a user, so it is timed as part of set-up.
type trialInputs struct {
	seed   int64
	window *timeseries.DataMatrix
	ticks  [][]float64
	// ticksTime is the part of generation spent producing the tick stream.
	ticksTime time.Duration
}

func (w workloadSpec) generate(seed int64) (*trialInputs, error) {
	numTicks := (w.warmup + w.rounds) * w.slide
	in := &trialInputs{seed: seed}
	if w.zipfTicks {
		window, err := w.generateData(seed, w.m)
		if err != nil {
			return nil, err
		}
		in.window = window
		start := time.Now()
		in.ticks, err = anchoredTicks(window, seed, numTicks)
		in.ticksTime = time.Since(start)
		return in, err
	}
	full, err := w.generateData(seed, w.m+numTicks)
	if err != nil {
		return nil, err
	}
	if in.window, err = full.Window(0, w.m); err != nil {
		return nil, err
	}
	start := time.Now()
	in.ticks = make([][]float64, numTicks)
	for i := range in.ticks {
		in.ticks[i] = make([]float64, w.n)
	}
	for v := 0; v < w.n; v++ {
		col, err := full.Series(timeseries.SeriesID(v))
		if err != nil {
			return nil, err
		}
		for i := range in.ticks {
			in.ticks[i][v] = col[w.m+i]
		}
	}
	in.ticksTime = time.Since(start)
	return in, nil
}

func (w workloadSpec) generateData(seed int64, samples int) (*timeseries.DataMatrix, error) {
	if w.stock {
		return dataset.GenerateStock(dataset.StockConfig{NumSeries: w.n, NumSamples: samples, Seed: seed})
	}
	return dataset.GenerateSensor(dataset.SensorConfig{NumSeries: w.n, NumSamples: samples, Seed: seed})
}

// anchoredTicks draws zipfian hot-series ticks and anchors each series at its
// last window sample: the raw stream oscillates around zero, so un-anchored
// ticks would enter the window as outliers and inflate every covariance epoch
// over epoch; anchored, the stream stays stationary and cached tail intervals
// stay repairable.
func anchoredTicks(window *timeseries.DataMatrix, seed int64, count int) ([][]float64, error) {
	stream, err := workload.NewTickStream(workload.TickConfig{
		NumSeries: window.NumSeries(),
		Skew:      workload.DefaultTickSkew,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	ticks := stream.Ticks(count)
	for v := 0; v < window.NumSeries(); v++ {
		col, err := window.Series(timeseries.SeriesID(v))
		if err != nil {
			return nil, err
		}
		for _, tick := range ticks {
			tick[v] += col[len(col)-1]
		}
	}
	return ticks, nil
}

// passInputs is what a workload's pass builder sees: the trial's initial
// window and a seeded generator.  Building the pass is the benchmark's own
// work (it sweeps the window for quantiles) and is never timed.
type passInputs struct {
	window *timeseries.DataMatrix
	rng    *rand.Rand
	seed   int64
	sorted map[stats.Measure][]float64
}

// sortedValues returns the window's exact pairwise values of m in ascending
// order, NaNs dropped.
func (in *passInputs) sortedValues(m stats.Measure) ([]float64, error) {
	if vals, ok := in.sorted[m]; ok {
		return vals, nil
	}
	all, err := exactValues(in.window, m)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, 0, len(all))
	for _, v := range all {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	if len(vals) < 16 {
		return nil, fmt.Errorf("only %d defined %v values in the window", len(vals), m)
	}
	if in.sorted == nil {
		in.sorted = map[stats.Measure][]float64{}
	}
	in.sorted[m] = vals
	return vals, nil
}

// exactValues evaluates m from the raw samples for every pair of d, in
// AllPairs order: the oracle behind thresholds, result_f1 and probes.
func exactValues(d *timeseries.DataMatrix, m stats.Measure) ([]float64, error) {
	sp, ok := measure.Find(m)
	if !ok || !sp.Pairwise() {
		return nil, fmt.Errorf("%v is not a pairwise measure", m)
	}
	values := make([]float64, d.NumPairs())
	if err := baseline.NewNaive(d).SweepValues(sp, d.AllPairs(), values); err != nil {
		return nil, err
	}
	return values, nil
}

// quantile returns the value at fraction q of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// closeMeasure reports whether small values of m mean "close" (the distance
// measures), so a result-size tail is the low end.
func closeMeasure(m stats.Measure) bool {
	return m == stats.EuclideanDistance || m == stats.MeanSquaredDifference || m == stats.AngularDistance
}

// tail returns the half-bounded interval (MET) selecting about share of the
// pairs at m's interesting end.
func (in *passInputs) tail(m stats.Measure, share float64) (interval.Interval, error) {
	vals, err := in.sortedValues(m)
	if err != nil {
		return interval.Interval{}, err
	}
	if closeMeasure(m) {
		return interval.LessThan(quantile(vals, share)), nil
	}
	return interval.GreaterThan(quantile(vals, 1-share)), nil
}

// band returns the closed interval (MER) selecting about share of the pairs,
// placed just inside m's interesting end.
func (in *passInputs) band(m stats.Measure, share float64) (interval.Interval, error) {
	vals, err := in.sortedValues(m)
	if err != nil {
		return interval.Interval{}, err
	}
	if closeMeasure(m) {
		return interval.Between(quantile(vals, 0.02), quantile(vals, 0.02+share)), nil
	}
	return interval.Between(quantile(vals, 0.98-share), quantile(vals, 0.98)), nil
}

// mecCalls draws count MEC queries over zipf-popular series from the repo's
// own workload generator.
func (in *passInputs) mecCalls(count int, method core.Method, measures []stats.Measure) ([]call, error) {
	gen, err := workload.NewGenerator(workload.Config{
		NumSeries: in.window.NumSeries(),
		Measures:  measures,
		Seed:      in.seed,
	})
	if err != nil {
		return nil, err
	}
	var calls []call
	for _, q := range gen.Batch(count) {
		kind := kindPairwise
		if sp, ok := measure.Find(q.Measure); ok && sp.Location() {
			kind = kindLocation
		}
		calls = append(calls, call{kind: kind, layer: "compute", m: q.Measure, ids: q.Series, method: method})
	}
	return calls, nil
}

// steadyPass is the 30-call pass of stream_steady and sharded_p2: MET at 1 %
// and 20 % and MER at 5 % of the pairs over three measures by Index and by
// Auto (18), top-k both directions (4), one location MET, six MEC, one
// eight-query batch.
func steadyPass(in *passInputs) ([]call, error) {
	var calls []call
	measures := []stats.Measure{stats.Correlation, stats.Covariance, stats.EuclideanDistance}
	var batch []core.IntervalQuery
	for _, m := range measures {
		var ivs []interval.Interval
		for _, share := range []float64{0.01, 0.20} {
			iv, err := in.tail(m, share)
			if err != nil {
				return nil, err
			}
			ivs = append(ivs, iv)
		}
		iv, err := in.band(m, 0.05)
		if err != nil {
			return nil, err
		}
		ivs = append(ivs, iv)
		for _, iv := range ivs {
			calls = append(calls,
				call{kind: kindInterval, layer: "index_interval", m: m, iv: iv, method: core.MethodIndex, scored: true},
				call{kind: kindInterval, layer: "auto", m: m, iv: iv, method: core.MethodAuto, scored: true})
		}
		batch = append(batch, core.IntervalQuery{Measure: m, Interval: ivs[0]}, core.IntervalQuery{Measure: m, Interval: ivs[2]})
	}
	for _, k := range []int{10, 100} {
		for _, largest := range []bool{true, false} {
			calls = append(calls, call{kind: kindTopK, layer: "index_topk", m: stats.Correlation, k: k, largest: largest, method: core.MethodIndex, scored: true})
		}
	}
	means, err := baseline.NewNaive(in.window).Location(stats.Mean, in.window.IDs())
	if err != nil {
		return nil, err
	}
	sort.Float64s(means)
	calls = append(calls, call{kind: kindInterval, layer: "index_location", m: stats.Mean,
		iv: interval.GreaterThan(quantile(means, 0.75)), method: core.MethodIndex})
	mec, err := in.mecCalls(6, core.MethodAffine, []stats.Measure{stats.Correlation, stats.Covariance, stats.Mean})
	if err != nil {
		return nil, err
	}
	calls = append(calls, mec...)
	for _, m := range []stats.Measure{stats.Cosine, stats.DotProduct} {
		iv, err := in.tail(m, 0.02)
		if err != nil {
			return nil, err
		}
		batch = append(batch, core.IntervalQuery{Measure: m, Interval: iv})
	}
	calls = append(calls, call{kind: kindBatch, layer: "batch", batch: batch, method: core.MethodIndex})
	return calls, nil
}

// churnPass is the 16-call pass of stream_churn: sweeps by Naive (through the
// sketch prescreen) and Affine, with two Index calls left in so the freshly
// rebuilt index is read at all.
func churnPass(in *passInputs) ([]call, error) {
	var calls []call
	add := func(layer string, m stats.Measure, method core.Method, met, mer bool) error {
		if met {
			iv, err := in.tail(m, 0.02)
			if err != nil {
				return err
			}
			calls = append(calls, call{kind: kindInterval, layer: layer, m: m, iv: iv, method: method, scored: method != core.MethodNaive})
		}
		if mer {
			iv, err := in.band(m, 0.05)
			if err != nil {
				return err
			}
			calls = append(calls, call{kind: kindInterval, layer: layer, m: m, iv: iv, method: method, scored: method != core.MethodNaive})
		}
		return nil
	}
	for _, m := range []stats.Measure{stats.Correlation, stats.Cosine, stats.EuclideanDistance} {
		if err := add("naive_interval", m, core.MethodNaive, true, true); err != nil {
			return nil, err
		}
	}
	for _, m := range []stats.Measure{stats.Correlation, stats.Covariance} {
		if err := add("affine_interval", m, core.MethodAffine, true, true); err != nil {
			return nil, err
		}
	}
	calls = append(calls, call{kind: kindTopK, layer: "naive_topk", m: stats.Correlation, k: 10, largest: true, method: core.MethodNaive})
	if err := add("naive_interval", stats.Jaccard, core.MethodNaive, true, false); err != nil {
		return nil, err
	}
	mec, err := in.mecCalls(2, core.MethodNaive, []stats.Measure{stats.Correlation, stats.Covariance})
	if err != nil {
		return nil, err
	}
	calls = append(calls, mec...)
	for _, m := range []stats.Measure{stats.Correlation, stats.Covariance} {
		if err := add("index_interval", m, core.MethodIndex, true, false); err != nil {
			return nil, err
		}
	}
	return calls, nil
}

// cachedPass is the 96-call pass of serve_cached, drawn zipf(1.3) from 24
// templates fixed for the trial: tail intervals whose boundary sits in the
// widest value gap of a quantile band (a boundary no pair value is near stays
// put across one-tick slides, which is what lets delta repair commit),
// narrower follow-ups contained in them, index top-k and a few exact sweeps.
func cachedPass(in *passInputs) ([]call, error) {
	gapTail := func(m stats.Measure, loQ, hiQ float64) (interval.Interval, error) {
		vals, err := in.sortedValues(m)
		if err != nil {
			return interval.Interval{}, err
		}
		lo, hi := int(loQ*float64(len(vals)-1)), int(hiQ*float64(len(vals)-1))
		best, boundary := -1.0, vals[lo]
		for i := lo; i < hi; i++ {
			if gap := vals[i+1] - vals[i]; gap > best {
				best, boundary = gap, (vals[i]+vals[i+1])/2
			}
		}
		if closeMeasure(m) {
			return interval.LessThan(boundary), nil
		}
		return interval.GreaterThan(boundary), nil
	}
	var templates []call
	for _, m := range []stats.Measure{stats.Covariance, stats.Correlation, stats.DotProduct, stats.EuclideanDistance} {
		// Wide probe first, then two follow-ups it contains.
		bands := [][2]float64{{0.80, 0.90}, {0.90, 0.96}, {0.96, 0.995}}
		if closeMeasure(m) {
			bands = [][2]float64{{0.10, 0.20}, {0.04, 0.10}, {0.005, 0.04}}
		}
		for _, b := range bands {
			iv, err := gapTail(m, b[0], b[1])
			if err != nil {
				return nil, err
			}
			templates = append(templates, call{kind: kindInterval, layer: "affine_interval", m: m, iv: iv, method: core.MethodAffine, scored: true})
		}
	}
	for _, m := range []stats.Measure{stats.Correlation, stats.Covariance} {
		for _, k := range []int{50, 20, 5} {
			templates = append(templates, call{kind: kindTopK, layer: "index_topk", m: m, k: k, largest: true, method: core.MethodIndex, scored: true})
		}
	}
	for _, m := range []stats.Measure{stats.Correlation, stats.Cosine, stats.EuclideanDistance} {
		for _, share := range []float64{0.05, 0.01} {
			iv, err := in.tail(m, share)
			if err != nil {
				return nil, err
			}
			templates = append(templates, call{kind: kindInterval, layer: "naive_interval", m: m, iv: iv, method: core.MethodNaive})
		}
	}
	if len(templates) != 24 {
		return nil, fmt.Errorf("serve_cached built %d templates, want 24", len(templates))
	}
	// Popularity ranks are scattered over the templates, so the hot queries
	// are a mix of kinds, and every template is asked at least once.
	order := in.rng.Perm(len(templates))
	zipf := rand.NewZipf(in.rng, 1.3, 1, uint64(len(templates)-1))
	calls := make([]call, 0, 96)
	for _, i := range order {
		calls = append(calls, templates[i])
	}
	// Every template is scored once, on its first call, so result_f1 weighs
	// the templates equally whatever the popularity draw.
	for len(calls) < 96 {
		c := templates[order[zipf.Uint64()]]
		c.scored = false
		calls = append(calls, c)
	}
	return calls, nil
}
