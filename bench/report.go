package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run learned, written to the output directory for
// -agree and for whoever reads a run later.
type report struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Smoke    bool   `json:"smoke"`
	Shape    shape  `json:"shape"`
	result
	Failures []string           `json:"failures"`
	Checksum string             `json:"checksum"`
	Regime   map[string]float64 `json:"regime"`
	Samples  map[string]int     `json:"samples"`
	Raw      map[string]float64 `json:"raw"`
	// SelfTimeMS is, in a traced run, the raw self time per span name: a
	// span's duration minus the part its children cover, summed.
	SelfTimeMS map[string]float64 `json:"self_time_ms,omitempty"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type shape struct {
	Series      int `json:"series"`
	Samples     int `json:"samples"`
	Slide       int `json:"slide"`
	Trials      int `json:"trials"`
	Warmup      int `json:"warmup_rounds"`
	Rounds      int `json:"timed_rounds"`
	PassCalls   int `json:"pass_calls"`
	Parallelism int `json:"parallelism"`
}

// endToEndValues computes the seven end-to-end metrics from the timed trials.
func (r *runner) endToEndValues() map[string]float64 {
	var setup float64
	for i := range r.trials {
		setup += r.trials[i].setupMS
	}
	return map[string]float64{
		"setup_s":            setup / 1000,
		"round_ms":           r.meanOfMedians(func(t *trialSamples) []float64 { return t.round }),
		"advance_ms":         r.meanOfMedians(func(t *trialSamples) []float64 { return t.advance }),
		"query_pass_ms":      r.meanOfMedians(func(t *trialSamples) []float64 { return t.pass }),
		"heap_live_mb":       mean(r.heapLiveMB),
		"alloc_mb_per_round": r.meanOfMedians(func(t *trialSamples) []float64 { return t.allocMB }),
		"result_f1":          mean(r.f1),
	}
}

// rawValues are the yardstick's own readings: they say how much to trust the
// normalised numbers beside them.
func (r *runner) rawValues(wall time.Duration) map[string]float64 {
	cache, mem, both := make([]float64, len(r.refs)), make([]float64, len(r.refs)), make([]float64, len(r.refs))
	for i, rd := range r.refs {
		cache[i], mem[i], both[i] = rd.inCache, rd.pastCache, rd.inCache+rd.pastCache
	}
	return map[string]float64{
		"raw.machine_speed": ratio(2*refNominalMS, median(both)),
		"raw.ref_kernel_ms": median(both),
		"raw.ref_cache_ms":  median(cache),
		"raw.ref_memory_ms": median(mem),
		"raw.wall_s":        wall.Seconds(),
		"raw.round_wall_ms": r.meanOfMedians(func(t *trialSamples) []float64 { return t.rawRoundMS }),
	}
}

// buildReport assembles the run's report.  untracedRound is, in a traced run,
// the median round of the untraced repeat of trial 0: trace.overhead_ratio is
// the traced trial 0 over it.
func (r *runner) buildReport(wall time.Duration, passCalls int, untracedRound float64) *report {
	w := r.w
	rep := &report{
		Workload: w.name, Why: w.why, Seed: r.seed, Trace: r.tr != nil, Smoke: r.smoke,
		Shape: shape{Series: w.n, Samples: w.m, Slide: w.slide, Trials: w.trials, Warmup: w.warmup,
			Rounds: w.rounds, PassCalls: passCalls, Parallelism: w.parallelism()},
		Failures: r.failures,
		Checksum: fmt.Sprintf("%016x", r.sum.Sum64()),
		Regime:   r.reg.stats(),
		Samples:  map[string]int{"timed_rounds": len(r.trials) * w.rounds, "result_f1": len(r.f1), "ref_kernel": len(r.refs)},
		Raw:      r.rawValues(wall),
	}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	rep.Correct = r.failed == 0
	rep.Metrics = map[string]metricValue{}
	values := r.endToEndValues()
	decls := endToEnd
	if r.tr != nil {
		layer, counts := r.layers.metrics()
		for k, v := range rep.Raw {
			layer[k] = v
		}
		layer["trace.overhead_ratio"] = ratio(median(r.trials[0].round), untracedRound)
		layer["trace.spans_count"] = float64(len(r.tr.spans))
		rep.SelfTimeMS = map[string]float64{}
		for name, d := range r.tr.selfTimes() {
			rep.SelfTimeMS[name] = ms(d)
		}
		for k, n := range counts {
			rep.Samples[k] = n
		}
		values, decls = layer, perLayer
	}
	for _, d := range decls {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return rep
}

// print writes the human-readable table and, last, the driver's line.
func (rep *report) print(out io.Writer) error {
	fmt.Fprintf(out, "%s seed %d: n=%d m=%d slide=%d, %d trials x (%d warm-up + %d timed) rounds, pass of %d calls, %d worker(s)\n",
		rep.Workload, rep.Seed, rep.Shape.Series, rep.Shape.Samples, rep.Shape.Slide, rep.Shape.Trials,
		rep.Shape.Warmup, rep.Shape.Rounds, rep.Shape.PassCalls, rep.Shape.Parallelism)
	decls := endToEnd
	if rep.Trace {
		decls = perLayer
	}
	for _, d := range decls {
		line := fmt.Sprintf("  %-34s %14.6g %-6s %s is better", d.name, rep.Metrics[d.name].Value, d.unit, d.better)
		if d.bound > 0 {
			line += fmt.Sprintf(", bound %.2f", d.bound)
		}
		if n, ok := rep.Samples[d.name]; ok {
			line += fmt.Sprintf(" (%d samples)", n)
		}
		fmt.Fprintln(out, line)
	}
	if !rep.Trace { // a traced run lists them among its metrics
		raws := make([]string, 0, len(rep.Raw))
		for k := range rep.Raw {
			raws = append(raws, k)
		}
		sort.Strings(raws)
		for _, k := range raws {
			fmt.Fprintf(out, "  %-34s %14.6g\n", k, rep.Raw[k])
		}
	}
	fmt.Fprintf(out, "  checksum %s, %d timed rounds, attempted %d, failed %d, claim null\n",
		rep.Checksum, rep.Samples["timed_rounds"], rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintln(out, "  FAILED:", f)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// write stores the report under dir, never overwriting an earlier run, and
// returns the path.
func (rep *report) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	for n := 0; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("report-%s-seed%d-trace%d-%d.json", rep.Workload, rep.Seed, trace, n))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
}
