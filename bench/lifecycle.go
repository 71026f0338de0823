package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"affinity/internal/core"
	"affinity/internal/shard"
)

// The lifecycle: per trial generate -> cold build -> (warmup + rounds) x
// (slide Appends + Advance, then the workload's fixed query pass).  One
// driver goroutine, closed loop: the next call is issued when the previous
// one returns.  Work is fixed by count; only timed segments sit between two
// reference-kernel measurements.

// trialSamples holds one trial's timed measurements, in reference-speed units
// unless named raw.
type trialSamples struct {
	setupMS    float64
	advance    []float64
	pass       []float64
	round      []float64
	allocMB    []float64
	rawRoundMS []float64
}

// regime accumulates the properties the workloads' guards assert.
type regime struct {
	advances, fullRefits        int
	indexUpdates, indexRebuilds int
	maxStaleFraction            float64
	numShards                   int
	sketchSweeps                int64
	sketchDefinite              int64
	sketchAmbiguous             int64
	cacheHits, cacheLookups     int
	minContainmentHits          int // the fewest in any one trial, -1 before the first
	minRepairHits               int
}

func (g *regime) indexUpdateShare() float64 {
	return ratio(float64(g.indexUpdates), float64(g.indexUpdates+g.indexRebuilds))
}

func (g *regime) sketchAmbiguousShare() float64 {
	return ratio(float64(g.sketchAmbiguous), float64(g.sketchDefinite+g.sketchAmbiguous))
}

func (g *regime) cacheHitShare() float64 {
	return ratio(float64(g.cacheHits), float64(g.cacheLookups))
}

// stats returns the regime as the flat name -> value map reports carry, so
// that -agree can tell when two runs were not in the same regime.
func (g *regime) stats() map[string]float64 {
	return map[string]float64{
		"advances":               float64(g.advances),
		"full_refits":            float64(g.fullRefits),
		"index_updates":          float64(g.indexUpdates),
		"index_rebuilds":         float64(g.indexRebuilds),
		"max_stale_fraction":     g.maxStaleFraction,
		"num_shards":             float64(g.numShards),
		"sketch_sweeps":          float64(g.sketchSweeps),
		"sketch_ambiguous_share": g.sketchAmbiguousShare(),
		"cache_hit_share":        g.cacheHitShare(),
		"min_containment_hits":   float64(g.minContainmentHits),
		"min_repair_hits":        float64(g.minRepairHits),
	}
}

type runner struct {
	w     workloadSpec
	seed  int64
	smoke bool
	ref   *yardstick
	tr    *tracer // nil in an untraced run

	runSpan    int
	trials     []trialSamples
	f1         []float64
	refs       []reading
	sum        hash.Hash64
	attempted  int
	failed     int
	failures   []string
	reg        regime
	heapLiveMB []float64     // one reading per trial
	layers     *layerSamples // nil in an untraced run
	wallStart  time.Time
	passCalls  int
	// firstTrialSum is the checksum after trial 0, which a traced run's
	// untraced repeat of that trial must reproduce.
	firstTrialSum uint64
}

func newRunner(w workloadSpec, seed int64, smoke, trace bool) *runner {
	r := &runner{w: w, seed: seed, smoke: smoke, ref: newYardstick(w.parallelism()), sum: fnv.New64a(), runSpan: -1}
	r.reg.minContainmentHits, r.reg.minRepairHits = -1, -1
	if trace {
		r.tr = newTracer()
		r.layers = newLayerSamples(w.trials)
	}
	return r
}

// fail records one failed operation; the message names workload, seed, trial
// and epoch so that the failure can be replayed.
func (r *runner) fail(trial, epoch int, format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s seed %d trial %d epoch %d: %s",
			r.w.name, r.seed, trial, epoch, fmt.Sprintf(format, args...)))
	}
}

// refMeasure takes a yardstick reading.  The start-of-run check has passed by
// then, so only corrupted memory can make a later reading fail.
func (r *runner) refMeasure() reading {
	rd, err := r.ref.measure()
	if err != nil {
		panic(err)
	}
	r.refs = append(r.refs, rd)
	return rd
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// run executes every timed trial.
func (r *runner) run() error {
	if _, err := r.ref.measure(); err != nil {
		return err
	}
	r.wallStart = time.Now()
	r.runSpan = r.tr.begin(-1, "run", -1, -1)
	defer r.tr.end(r.runSpan)
	for t := 0; t < r.w.trials; t++ {
		if err := r.trial(t); err != nil {
			return fmt.Errorf("%s seed %d trial %d: %w", r.w.name, r.seed, t, err)
		}
	}
	r.attempted++ // the regime guard
	for _, msg := range r.w.guard(&r.reg) {
		r.fail(-1, -1, "regime guard: %s", msg)
	}
	return nil
}

// trialCtx is the state of the trial in flight.
type trialCtx struct {
	t       int
	span    int
	in      *trialInputs
	tgt     target
	calls   []call
	answers []answer
	samples *trialSamples
	// build is the engine's BuildInfo right after the cold build (zero behind
	// the coordinator), and setupFactor the set-up segment's wall-to-reference
	// factor; the traced run reports the build phases from them.
	build       core.BuildInfo
	setupFactor float64
}

func (r *runner) trial(t int) error {
	w := r.w
	seed := trialSeed(r.seed, t)
	tc := &trialCtx{t: t, span: r.tr.begin(r.runSpan, "trial", t, -1)}
	defer r.tr.end(tc.span)
	r.trials = append(r.trials, trialSamples{})
	tc.samples = &r.trials[len(r.trials)-1]

	// Set-up: what a user waits for before the first answer.
	setupSpan := r.tr.begin(tc.span, "setup", t, -1)
	ref0 := r.refMeasure()
	start := time.Now()
	in, err := w.generate(seed)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	generated := time.Now()
	tgt, err := w.build(in.window, seed)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	wall := time.Since(start)
	ref1 := r.refMeasure()
	r.tr.end(setupSpan)
	tc.in, tc.tgt = in, tgt
	if eng, ok := tgt.(*core.Engine); ok {
		tc.build = eng.Info()
	}
	tc.samples.setupMS = norm(wall, streaming, ref0, ref1)
	if r.layers != nil {
		factor := norm(time.Millisecond, streaming, ref0, ref1)
		r.layers.add("dataset.generate_ms", t, ms(generated.Sub(start)-in.ticksTime)*factor)
		r.layers.add("workload.ticks_ms", t, ms(in.ticksTime)*factor)
		tc.setupFactor = factor
	}

	// The pass is built from the initial window by the benchmark itself.
	tc.calls, err = w.pass(&passInputs{window: in.window, seed: seed, rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		return fmt.Errorf("building the pass: %w", err)
	}
	tc.answers = make([]answer, len(tc.calls))
	r.passCalls = len(tc.calls)

	for rd := 0; rd < w.warmup+w.rounds; rd++ {
		if err := r.round(tc, rd); err != nil {
			return err
		}
	}
	r.observeRegime(tc)

	// Live heap with the engine alive: what the trial's final epoch retains.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapLiveMB = append(r.heapLiveMB, float64(mem.HeapAlloc)/(1<<20))
	runtime.KeepAlive(tc.tgt)
	if t == 0 {
		r.firstTrialSum = r.sum.Sum64()
	}
	if r.layers != nil {
		r.layers.observeTrial(tc)
		if err := r.probes(tc); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	return nil
}

// round runs one lifecycle round.  Rounds below the warm-up count are not
// recorded.
func (r *runner) round(tc *trialCtx, rd int) error {
	w, t := r.w, tc.t
	timed := rd >= w.warmup
	ticks := tc.in.ticks[rd*w.slide : (rd+1)*w.slide]
	roundSpan := r.tr.begin(tc.span, "round", t, rd)
	defer r.tr.end(roundSpan)

	// Advance segment.
	ref0 := r.refMeasure()
	advSpan := r.tr.begin(roundSpan, "advance", t, rd)
	alloc0 := heapAllocBytes()
	start := time.Now()
	for _, tick := range ticks {
		s := r.tr.begin(advSpan, "core.append", t, rd)
		err := tc.tgt.Append(tick)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("epoch %d: Append: %w", tc.tgt.Epoch(), err)
		}
	}
	s := r.tr.begin(advSpan, "core.advance", t, rd)
	info, err := tc.tgt.Advance()
	r.tr.end(s)
	advWall := time.Since(start)
	alloc1 := heapAllocBytes()
	r.tr.end(advSpan)
	ref1 := r.refMeasure()
	if err != nil {
		return fmt.Errorf("epoch %d: Advance: %w", tc.tgt.Epoch(), err)
	}
	epoch := info.Epoch

	// Query pass.
	passSpan := r.tr.begin(roundSpan, "pass", t, rd)
	alloc2 := heapAllocBytes()
	start = time.Now()
	for i := range tc.calls {
		c := &tc.calls[i]
		s := r.tr.begin(passSpan, "core.query_"+c.layer, t, rd)
		tc.answers[i], err = c.run(tc.tgt)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("epoch %d: %v: %w", epoch, c, err)
		}
	}
	passWall := time.Since(start)
	alloc3 := heapAllocBytes()
	r.tr.end(passSpan)
	ref2 := r.refMeasure()

	if !timed {
		return nil
	}
	r.attempted += len(ticks) + 1 + len(tc.calls)
	adv, pass := norm(advWall, streaming, ref0, ref1), norm(passWall, scanning, ref1, ref2)
	sm := tc.samples
	sm.advance = append(sm.advance, adv)
	sm.pass = append(sm.pass, pass)
	sm.round = append(sm.round, adv+pass)
	sm.allocMB = append(sm.allocMB, float64(alloc1-alloc0+alloc3-alloc2)/(1<<20))
	sm.rawRoundMS = append(sm.rawRoundMS, ms(advWall+passWall))

	r.hashRound(epoch, tc.answers)
	r.reg.advances++
	if info.FullRefit {
		r.reg.fullRefits++
	}
	st := tc.tgt.StreamStats()
	if st.LastStaleFraction > r.reg.maxStaleFraction {
		r.reg.maxStaleFraction = st.LastStaleFraction
	}
	if r.layers != nil {
		r.layers.roundSpans(r.tr, tc, advSpan, passSpan,
			norm(time.Millisecond, streaming, ref0, ref1), norm(time.Millisecond, scanning, ref1, ref2), info, st)
	}
	if (rd-w.warmup)%8 == 0 {
		if err := r.scoreRound(tc, epoch); err != nil {
			return fmt.Errorf("epoch %d: scoring: %w", epoch, err)
		}
	}
	return nil
}

func (r *runner) hashRound(epoch int, answers []answer) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(uint64(epoch) >> (8 * i))
	}
	r.sum.Write(buf[:])
	for i := range answers {
		answers[i].hashInto(r.sum)
	}
}

// scoreRound compares the round's scored answers with the exact ones.
func (r *runner) scoreRound(tc *trialCtx, epoch int) error {
	o := newOracle(tc.tgt.Data())
	var total float64
	var n int
	for i := range tc.calls {
		c := &tc.calls[i]
		if !c.scored {
			continue
		}
		s, err := o.score(c, &tc.answers[i])
		if err != nil {
			return fmt.Errorf("%v: %w", c, err)
		}
		total += s
		n++
	}
	if n > 0 {
		r.f1 = append(r.f1, total/float64(n))
	}
	return nil
}

// observeRegime folds a finished trial's counters into the regime.
func (r *runner) observeRegime(tc *trialCtx) {
	g := &r.reg
	st := tc.tgt.StreamStats()
	shards := 1 // the coordinator sums the index counters over its shards
	if c, ok := tc.tgt.(*shard.Coordinator); ok {
		shards = c.NumShards()
		g.numShards = shards
	}
	g.indexUpdates += st.IndexUpdates / shards
	g.indexRebuilds += st.IndexRebuilds / shards
	g.sketchSweeps += st.SketchSweeps
	g.sketchDefinite += st.SketchDefiniteIn + st.SketchDefiniteOut
	g.sketchAmbiguous += st.SketchAmbiguous
	hits := st.CacheExactHits + st.CacheContainmentHits + st.CacheRepairHits
	g.cacheHits += hits
	g.cacheLookups += hits + st.CacheMisses
	if g.minContainmentHits < 0 || st.CacheContainmentHits < g.minContainmentHits {
		g.minContainmentHits = st.CacheContainmentHits
	}
	if g.minRepairHits < 0 || st.CacheRepairHits < g.minRepairHits {
		g.minRepairHits = st.CacheRepairHits
	}
}

// verify is the final untimed trial: the workload's engine and a cold twin
// (cache off, sketch off, one plain engine) take the same ticks, and every
// answer of every pass must be bit-identical between them, because every tier
// the workloads switch on promises exactly that.  Each Auto call must also
// equal a rerun with the method the planner reports having chosen.
func (r *runner) verify() error {
	w := r.w
	w.rounds = min(w.warmup+w.rounds, 5)
	w.warmup = 0
	t := r.w.trials
	seed := trialSeed(r.seed, t)
	in, err := w.generate(seed)
	if err != nil {
		return err
	}
	tgt, err := w.build(in.window, seed)
	if err != nil {
		return err
	}
	twin, err := core.Build(in.window, w.twinConfig(seed))
	if err != nil {
		return err
	}
	calls, err := w.pass(&passInputs{window: in.window, seed: seed, rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		return err
	}
	for rd := 0; rd < w.rounds; rd++ {
		for _, tick := range in.ticks[rd*w.slide : (rd+1)*w.slide] {
			if err := tgt.Append(tick); err != nil {
				return err
			}
			if err := twin.Append(tick); err != nil {
				return err
			}
		}
		info, err := tgt.Advance()
		if err != nil {
			return err
		}
		if _, err := twin.Advance(); err != nil {
			return err
		}
		for i := range calls {
			c := &calls[i]
			got, err := c.run(tgt)
			if err != nil {
				return fmt.Errorf("verification epoch %d: %v: %w", info.Epoch, c, err)
			}
			want, err := c.run(twin)
			if err != nil {
				return fmt.Errorf("verification epoch %d: twin %v: %w", info.Epoch, c, err)
			}
			r.attempted++
			if d := got.differs(&want); d != "" {
				r.fail(t, info.Epoch, "%v differs from the cold twin: %s", c, d)
			}
			if c.method != core.MethodAuto {
				continue
			}
			_, p, err := twin.Explain(c.spec(), core.MethodAuto)
			if err != nil {
				return err
			}
			fixed := *c
			fixed.method = p.Method
			again, err := fixed.run(twin)
			if err != nil {
				return err
			}
			r.attempted++
			if d := want.differs(&again); d != "" {
				r.fail(t, info.Epoch, "%v differs from its chosen method %v: %s", c, p.Method, d)
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// meanOfMedians is the benchmark's statistic: per trial the median over its
// timed rounds, then the mean over trials.
func (r *runner) meanOfMedians(pick func(*trialSamples) []float64) float64 {
	meds := make([]float64, len(r.trials))
	for i := range r.trials {
		meds[i] = median(pick(&r.trials[i]))
	}
	return mean(meds)
}
