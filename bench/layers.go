package main

import (
	"sort"

	"affinity/internal/core"
)

// layerSamples collects what a traced run learns about single layers: timed
// samples per metric and trial, and the engine's public counters summed over
// the trials.  Timed metrics use the benchmark's statistic (mean over trials
// of per-trial medians); ratios are computed once from the summed counters.
type layerSamples struct {
	trials   int
	perTrial map[string][][]float64

	// Pooled samples behind the two tail percentiles.
	advances []float64
	calls    []float64

	// Counters summed over trials (StreamStats is cumulative per engine).
	stats     core.StreamStats
	refit     int
	reused    int
	naiveTopK int // naive top-k calls issued, the denominator of the skip ratio
	numPairs  int
	pinvHits  int
	pinvCount int
	ratios    map[string][]float64 // per-probe ratios and counts, averaged
}

func newLayerSamples(trials int) *layerSamples {
	return &layerSamples{trials: trials, perTrial: map[string][][]float64{}, ratios: map[string][]float64{}}
}

func (l *layerSamples) add(name string, trial int, v float64) {
	s := l.perTrial[name]
	if s == nil {
		s = make([][]float64, l.trials)
		l.perTrial[name] = s
	}
	s[trial] = append(s[trial], v)
}

// addRatio records a unitless per-probe value that is averaged over probes.
func (l *layerSamples) addRatio(name string, v float64) {
	l.ratios[name] = append(l.ratios[name], v)
}

// roundSpans turns the spans of one timed round into samples.  The spans of
// a round sit contiguously after its advance span.
func (l *layerSamples) roundSpans(tr *tracer, tc *trialCtx, advSpan, passSpan int, advFactor, passFactor float64, info core.AdvanceInfo, st core.StreamStats) {
	t := tc.t
	var appendNS, advanceNS int64
	for _, s := range tr.spans[advSpan+1:] {
		d := s.EndNS - s.StartNS
		switch {
		case s.Parent == advSpan && s.Name == "core.append":
			appendNS += d
		case s.Parent == advSpan && s.Name == "core.advance":
			advanceNS = d
		case s.Parent == passSpan:
			v := float64(d) / 1e6 * passFactor
			l.add(s.Name+"_ms", t, v)
			l.calls = append(l.calls, v)
		}
	}
	l.add("core.append_us", t, float64(appendNS)/1e3/float64(max(1, info.Slide))*advFactor)
	phases := st.LastSlidePhase + st.LastRefitPhase + st.LastIndexPhase + st.LastPlannerPhase
	l.add("core.advance_slide_ms", t, ms(st.LastSlidePhase)*advFactor)
	l.add("core.advance_refit_ms", t, ms(st.LastRefitPhase)*advFactor)
	l.add("core.advance_index_ms", t, ms(st.LastIndexPhase)*advFactor)
	l.add("core.advance_planner_ms", t, ms(st.LastPlannerPhase)*advFactor)
	l.add("core.advance_other_ms", t, (float64(advanceNS)/1e6-ms(phases))*advFactor)
	l.advances = append(l.advances, float64(appendNS+advanceNS)/1e6*advFactor)
	l.refit += info.RefitRelationships
	l.reused += info.ReusedRelationships
	for i := range tc.calls {
		if tc.calls[i].layer == "naive_topk" {
			l.naiveTopK++
		}
	}
}

// observeTrial folds a finished trial's cumulative counters into the sums.
func (l *layerSamples) observeTrial(tc *trialCtx) {
	st := tc.tgt.StreamStats()
	a := &l.stats
	a.Advances += st.Advances
	a.IndexUpdates += st.IndexUpdates
	a.IndexRebuilds += st.IndexRebuilds
	a.EntriesDeleted += st.EntriesDeleted
	a.EntriesInserted += st.EntriesInserted
	a.StoresShared += st.StoresShared
	a.StoresCloned += st.StoresCloned
	a.StoresRebuilt += st.StoresRebuilt
	a.ScratchGets += st.ScratchGets
	a.ScratchHits += st.ScratchHits
	a.CacheExactHits += st.CacheExactHits
	a.CacheContainmentHits += st.CacheContainmentHits
	a.CacheRepairHits += st.CacheRepairHits
	a.CacheMisses += st.CacheMisses
	a.CacheRepairedPairs += st.CacheRepairedPairs
	a.CacheRepairFallbacks += st.CacheRepairFallbacks
	a.CacheBytes += st.CacheBytes
	a.SketchRebuilt += st.SketchRebuilt
	a.SketchSlid += st.SketchSlid
	a.SketchDefiniteIn += st.SketchDefiniteIn
	a.SketchDefiniteOut += st.SketchDefiniteOut
	a.SketchAmbiguous += st.SketchAmbiguous
	a.SketchTopKSkippedPairs += st.SketchTopKSkippedPairs
	l.numPairs = tc.tgt.Data().NumPairs()
}

// meanOfMedians is the per-layer statistic over the trials that have samples.
func (l *layerSamples) meanOfMedians(name string) (float64, int) {
	var meds []float64
	n := 0
	for _, s := range l.perTrial[name] {
		if len(s) > 0 {
			meds = append(meds, median(s))
			n += len(s)
		}
	}
	return mean(meds), n
}

// p90 returns the 90th percentile of xs, which has at least ten samples
// beyond it once a run has a hundred of them.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)*9)/10]
}

// metrics assembles every per-layer value the counters and samples give;
// the yardstick and trace metrics are added by the report.
func (l *layerSamples) metrics() (map[string]float64, map[string]int) {
	out := map[string]float64{}
	counts := map[string]int{}
	for name := range l.perTrial {
		out[name], counts[name] = l.meanOfMedians(name)
	}
	for name, vs := range l.ratios {
		out[name], counts[name] = mean(vs), len(vs)
	}
	out["core.advance_p90_ms"], counts["core.advance_p90_ms"] = p90(l.advances), len(l.advances)
	out["core.query_call_p90_ms"], counts["core.query_call_p90_ms"] = p90(l.calls), len(l.calls)

	st := l.stats
	f := func(x int) float64 { return float64(x) }
	out["symex.refit_ratio"] = ratio(f(l.refit), f(l.refit+l.reused))
	out["symex.pinv_hit_ratio"] = ratio(f(l.pinvHits), f(l.pinvHits+l.pinvCount))
	out["scape.update_fallback_ratio"] = ratio(f(st.IndexRebuilds), f(st.IndexUpdates+st.IndexRebuilds))
	out["scape.entries_mutated_per_epoch"] = ratio(f(st.EntriesDeleted+st.EntriesInserted), f(st.Advances))
	out["scape.stores_shared_ratio"] = ratio(f(st.StoresShared), f(st.StoresShared+st.StoresCloned+st.StoresRebuilt))
	out["scape.scratch_hit_ratio"] = ratio(f(st.ScratchHits), f(st.ScratchGets))
	classified := float64(st.SketchDefiniteIn + st.SketchDefiniteOut + st.SketchAmbiguous)
	out["sketch.slid_ratio"] = ratio(float64(st.SketchSlid), float64(st.SketchSlid+st.SketchRebuilt))
	out["sketch.ambiguous_ratio"] = ratio(float64(st.SketchAmbiguous), classified)
	out["sketch.definite_ratio"] = ratio(float64(st.SketchDefiniteIn+st.SketchDefiniteOut), classified)
	out["sketch.topk_skipped_ratio"] = ratio(float64(st.SketchTopKSkippedPairs), f(l.naiveTopK*l.numPairs))
	lookups := f(st.CacheExactHits + st.CacheContainmentHits + st.CacheRepairHits + st.CacheMisses)
	out["qcache.exact_ratio"] = ratio(f(st.CacheExactHits), lookups)
	out["qcache.contained_ratio"] = ratio(f(st.CacheContainmentHits), lookups)
	out["qcache.repair_ratio"] = ratio(f(st.CacheRepairHits), lookups)
	out["qcache.miss_ratio"] = ratio(f(st.CacheMisses), lookups)
	out["qcache.repair_fallback_ratio"] = ratio(f(st.CacheRepairFallbacks), f(st.CacheRepairHits+st.CacheRepairFallbacks))
	out["qcache.repaired_pairs_per_hit"] = ratio(f(st.CacheRepairedPairs), f(st.CacheRepairHits))
	out["qcache.bytes_mb"] = float64(st.CacheBytes) / (1 << 20) / float64(l.trials)
	return out, counts
}
