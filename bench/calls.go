package main

import (
	"fmt"
	"hash"
	"math"
	"sort"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/shard"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// target is the part of the query and streaming surface the lifecycle drives;
// *core.Engine and *shard.Coordinator both provide it, which is what lets
// sharded_p2 run stream_steady's pass unchanged.
type target interface {
	Append(tick []float64) error
	Advance() (core.AdvanceInfo, error)
	Interval(m stats.Measure, iv interval.Interval, method core.Method) (core.QueryResult, error)
	TopK(m stats.Measure, k int, largest bool, method core.Method) (core.QueryResult, error)
	IntervalBatch(qs []core.IntervalQuery, method core.Method) ([]core.QueryResult, error)
	ComputePairwise(m stats.Measure, ids []timeseries.SeriesID, method core.Method) ([][]float64, error)
	ComputeLocation(m stats.Measure, ids []timeseries.SeriesID, method core.Method) ([]float64, error)
	StreamStats() core.StreamStats
	Data() *timeseries.DataMatrix
	Epoch() int
}

func (w workloadSpec) build(d *timeseries.DataMatrix, clusterSeed int64) (target, error) {
	cfg := w.engineConfig(clusterSeed)
	if w.shards > 0 {
		return shard.Build(d, shard.Config{Shards: w.shards, Engine: cfg})
	}
	return core.Build(d, cfg)
}

type callKind uint8

const (
	kindInterval callKind = iota
	kindTopK
	kindPairwise
	kindLocation
	kindBatch
)

// call is one query of a pass.  layer names the per-layer bucket its time is
// attributed to in a traced run; scored calls enter result_f1.
type call struct {
	kind    callKind
	layer   string
	m       stats.Measure
	iv      interval.Interval
	k       int
	largest bool
	ids     []timeseries.SeriesID
	batch   []core.IntervalQuery
	method  core.Method
	scored  bool
}

func (c *call) String() string {
	switch c.kind {
	case kindInterval:
		return fmt.Sprintf("%v by %v", plan.Interval(c.m, c.iv), c.method)
	case kindTopK:
		return fmt.Sprintf("%v by %v", plan.TopK(c.m, c.k, c.largest), c.method)
	case kindBatch:
		return fmt.Sprintf("IntervalBatch of %d by %v", len(c.batch), c.method)
	default:
		return fmt.Sprintf("%v by %v", plan.Compute(c.m, len(c.ids)), c.method)
	}
}

// spec returns the logical form of an interval or top-k call.
func (c *call) spec() plan.QuerySpec {
	if c.kind == kindTopK {
		return plan.TopK(c.m, c.k, c.largest)
	}
	return plan.Interval(c.m, c.iv)
}

// answer holds whatever a call returned.
type answer struct {
	res   core.QueryResult
	batch []core.QueryResult
	mat   [][]float64
	loc   []float64
}

func (c *call) run(t target) (answer, error) {
	var a answer
	var err error
	switch c.kind {
	case kindInterval:
		a.res, err = t.Interval(c.m, c.iv, c.method)
	case kindTopK:
		a.res, err = t.TopK(c.m, c.k, c.largest, c.method)
	case kindPairwise:
		a.mat, err = t.ComputePairwise(c.m, c.ids, c.method)
	case kindLocation:
		a.loc, err = t.ComputeLocation(c.m, c.ids, c.method)
	case kindBatch:
		a.batch, err = t.IntervalBatch(c.batch, c.method)
	}
	return a, err
}

// hashInto folds every id and every value bit of the answer into h.
func (a *answer) hashInto(h hash.Hash64) {
	var buf [8]byte
	put := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	result := func(r *core.QueryResult) {
		put(uint64(len(r.Series))<<32 | uint64(len(r.Pairs)))
		for _, s := range r.Series {
			put(uint64(s))
		}
		for _, p := range r.Pairs {
			put(uint64(p.U)<<32 | uint64(p.V))
		}
		for _, v := range r.Values {
			put(math.Float64bits(v))
		}
	}
	result(&a.res)
	for i := range a.batch {
		result(&a.batch[i])
	}
	for _, row := range a.mat {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	for _, v := range a.loc {
		put(math.Float64bits(v))
	}
}

// differs describes the first place two answers are not bit-identical, or
// returns "" when they are.
func (a *answer) differs(b *answer) string {
	floats := func(what string, x, y []float64) string {
		if len(x) != len(y) {
			return fmt.Sprintf("%s: %d values vs %d", what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v", what, i, x[i], y[i])
			}
		}
		return ""
	}
	result := func(what string, x, y *core.QueryResult) string {
		if len(x.Series) != len(y.Series) || len(x.Pairs) != len(y.Pairs) {
			return fmt.Sprintf("%s: %d rows vs %d", what, x.Size(), y.Size())
		}
		for i := range x.Series {
			if x.Series[i] != y.Series[i] {
				return fmt.Sprintf("%s row %d: series %d vs %d", what, i, x.Series[i], y.Series[i])
			}
		}
		for i := range x.Pairs {
			if x.Pairs[i] != y.Pairs[i] {
				return fmt.Sprintf("%s row %d: pair %v vs %v", what, i, x.Pairs[i], y.Pairs[i])
			}
		}
		return floats(what+" values", x.Values, y.Values)
	}
	if d := result("result", &a.res, &b.res); d != "" {
		return d
	}
	if len(a.batch) != len(b.batch) || len(a.mat) != len(b.mat) {
		return fmt.Sprintf("shape: %d/%d batch results, %d/%d matrix rows", len(a.batch), len(b.batch), len(a.mat), len(b.mat))
	}
	for i := range a.batch {
		if d := result(fmt.Sprintf("batch[%d]", i), &a.batch[i], &b.batch[i]); d != "" {
			return d
		}
	}
	for i := range a.mat {
		if d := floats(fmt.Sprintf("matrix row %d", i), a.mat[i], b.mat[i]); d != "" {
			return d
		}
	}
	return floats("location", a.loc, b.loc)
}

// oracle answers scored calls exactly from the raw window, independently of
// the engine under test (so scoring never disturbs its caches or counters).
type oracle struct {
	d      *timeseries.DataMatrix
	values map[stats.Measure][]float64
}

func newOracle(d *timeseries.DataMatrix) *oracle {
	return &oracle{d: d, values: map[stats.Measure][]float64{}}
}

func (o *oracle) exact(m stats.Measure) ([]float64, error) {
	if v, ok := o.values[m]; ok {
		return v, nil
	}
	v, err := exactValues(o.d, m)
	if err == nil {
		o.values[m] = v
	}
	return v, err
}

// pairIndex is the position of pair (u,v) in AllPairs order.
func pairIndex(n int, p timeseries.Pair) int {
	u, v := int(p.U), int(p.V)
	return u*n - u*(u+1)/2 + (v - u - 1)
}

// score returns the call's agreement with the exact answer: F1 of the pair
// sets for an interval call, overlap/k for a top-k call.
func (o *oracle) score(c *call, a *answer) (float64, error) {
	vals, err := o.exact(c.m)
	if err != nil {
		return 0, err
	}
	n := o.d.NumSeries()
	want := make([]bool, len(vals))
	wantCount := 0
	if c.kind == kindTopK {
		order := make([]int, 0, len(vals))
		for i, v := range vals {
			if !math.IsNaN(v) {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(i, j int) bool {
			if c.largest {
				return vals[order[i]] > vals[order[j]]
			}
			return vals[order[i]] < vals[order[j]]
		})
		for _, i := range order[:min(c.k, len(order))] {
			want[i] = true
			wantCount++
		}
	} else {
		for i, v := range vals {
			if c.iv.Contains(v) {
				want[i] = true
				wantCount++
			}
		}
	}
	hit := 0
	for _, p := range a.res.Pairs {
		if want[pairIndex(n, p)] {
			hit++
		}
	}
	if c.kind == kindTopK {
		return ratio(float64(hit), float64(wantCount)), nil
	}
	if wantCount+len(a.res.Pairs) == 0 {
		return 1, nil
	}
	return 2 * float64(hit) / float64(wantCount+len(a.res.Pairs)), nil
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
