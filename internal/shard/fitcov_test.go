package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"affinity/internal/core"
	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/qcache"
	"affinity/internal/timeseries"
)

// oracleAnswer answers spec from scalar W_N values of every canonical pair, by
// definition: a filter in canonical pair order, or a sort by value with ties
// in canonical pair order, NaN never matching.
func oracleAnswer(pairs []timeseries.Pair, values []float64, spec plan.QuerySpec) core.QueryResult {
	var idx []int
	for i, v := range values {
		if !math.IsNaN(v) && (spec.Kind == plan.KindTopK || spec.Interval.Contains(v)) {
			idx = append(idx, i)
		}
	}
	var res core.QueryResult
	if spec.Kind == plan.KindTopK {
		slices.SortStableFunc(idx, func(a, b int) int {
			switch {
			case values[a] == values[b]:
				return 0
			case (values[a] > values[b]) == spec.Largest:
				return -1
			}
			return 1
		})
		idx = idx[:min(spec.K, len(idx))]
		res.Values = []float64{}
	}
	for _, i := range idx {
		res.Pairs = append(res.Pairs, pairs[i])
		if spec.Kind == plan.KindTopK {
			res.Values = append(res.Values, values[i])
		}
	}
	return res
}

// requireCoordinatorNaive holds a coordinator's naive covariance and
// correlation answers at its current epoch to the scalar oracle, Float64bits
// equal: closed, open and half-bounded intervals whose endpoints are pair
// values, top-k both ways, a batch that mixes in cosine, MEC and BaseValues.
// Where the coordinator executed a query, Explain must report the source
// that served it: the shards' naive covariance columns (fit) or the
// prescreen over the whole universe.
func requireCoordinatorNaive(t *testing.T, label string, c *Coordinator, fit bool) {
	t.Helper()
	cs := c.state()
	for _, v := range cs.views {
		if got := v.Relationships().PairCov() != nil; got != fit {
			t.Fatalf("%s: shard has pair covariances: %v, want %v", label, got, fit)
		}
	}
	d := c.Data()
	pairs := d.AllPairs()
	values := map[measure.Measure][]float64{}
	var specs []plan.QuerySpec
	for _, m := range []measure.Measure{measure.Correlation, measure.Covariance, measure.Cosine} {
		vals := make([]float64, len(pairs))
		for i, pair := range pairs {
			su, _ := d.Series(pair.U)
			sv, _ := d.Series(pair.V)
			v, err := measure.OrNaN(measure.EvalPair(m, su, sv))
			if err != nil {
				t.Fatal(err)
			}
			vals[i] = v
		}
		values[m] = vals
		finite := slices.DeleteFunc(slices.Clone(vals), math.IsNaN)
		slices.Sort(finite)
		q := func(p float64) float64 { return finite[int(p*float64(len(finite)-1))] }
		specs = append(specs,
			plan.Interval(m, interval.Between(q(0.2), q(0.6))),
			plan.Interval(m, interval.New(interval.Open(q(0.2)), interval.Open(q(0.6)))),
			plan.Interval(m, interval.AtLeast(q(0.9))),
			plan.Interval(m, interval.LessThan(q(0.1))),
			plan.TopK(m, 7, true),
			plan.TopK(m, 7, false))
	}
	got, _, err := core.Run(cs, specs, core.MethodNaive, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		if want := oracleAnswer(pairs, values[spec.Measure], spec); fmt.Sprintf("%v", got[i]) != fmt.Sprintf("%v", want) {
			t.Fatalf("%s batch %v:\n got %v\nwant %v", label, spec, got[i], want)
		}
	}
	for _, spec := range specs {
		if spec.Measure == measure.Cosine {
			continue
		}
		out, plans, err := core.Run(cs, []plan.QuerySpec{spec}, core.MethodNaive, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleAnswer(pairs, values[spec.Measure], spec); fmt.Sprintf("%v", out[0]) != fmt.Sprintf("%v", want) {
			t.Fatalf("%s %v:\n got %v\nwant %v", label, spec, out[0], want)
		}
		switch p := plans[0]; {
		case p.CacheTier != "":
		case fit && (p.BaseValues != core.BaseFit || p.SketchedPairs != 0 || p.SketchRefinedPairs != 0):
			t.Fatalf("%s %v: base values %q, %d sketched, %d refined; want the fit columns", label, spec, p.BaseValues, p.SketchedPairs, p.SketchRefinedPairs)
		case !fit && (p.BaseValues != "" || p.SketchedPairs != len(pairs)):
			t.Fatalf("%s %v: base values %q, %d sketched; want the prescreen over all %d pairs", label, spec, p.BaseValues, p.SketchedPairs, len(pairs))
		}
	}

	ids := []timeseries.SeriesID{6, 0, 2, 1, 11, 4}
	for _, m := range []measure.Measure{measure.Correlation, measure.Covariance} {
		gotMat, err := c.ComputePairwise(m, ids, core.MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range ids {
			for j, v := range ids {
				want, err := measure.OrNaN(cs.Replica().SelfValue(m, u))
				if u != v {
					su, _ := d.Series(u)
					sv, _ := d.Series(v)
					want, err = measure.OrNaN(measure.EvalPair(m, su, sv))
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := gotMat[i][j]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%s MEC %v (%d, %d): %v, scalar %v", label, m, u, v, got, want)
				}
			}
		}
	}
	// The owning shards' base values: their fit columns where they have
	// them, the kernels otherwise.
	base := make([]float64, len(pairs))
	if err := cs.BaseValues(measure.Covariance, pairs, core.MethodNaive, base); err != nil {
		t.Fatal(err)
	}
	for i, pair := range pairs {
		if math.Float64bits(base[i]) != math.Float64bits(values[measure.Covariance][i]) {
			t.Fatalf("%s BaseValues %v: %v, scalar %v", label, pair, base[i], values[measure.Covariance][i])
		}
	}
}

// TestCoordinatorNaiveCovarianceColumn: every shard of a coordinator keeps the
// covariances of its own pairs from the epoch's full fit — Restrict carries
// the global fit's to the build epoch, each shard's own full Refit makes them
// after that — and the merged naive answers are the scalar oracle's, at S ∈
// {1, 2}, P ∈ {1, 2}, with the cache on and off.  Series 0 is constant (NaN
// correlations) and series 2 a copy of series 1 (ties).  Under DriftBound the
// Advance is a partial refit: no shard has the column, the prescreen serves,
// and the answers do not change.
func TestCoordinatorNaiveCovarianceColumn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, p := range []int{1, 2} {
			for _, cached := range []bool{false, true} {
				for _, drift := range []float64{0, 0.5} {
					label := fmt.Sprintf("S=%d P=%d cache=%v drift=%v", shards, p, cached, drift)
					fx := makeShardFixture(t, 20, 70, 2, 13)
					rows := make([][]float64, 20)
					for v := range rows {
						s, err := fx.window.Series(timeseries.SeriesID(v))
						if err != nil {
							t.Fatal(err)
						}
						rows[v] = slices.Clone(s)
					}
					for i := range rows[0] {
						rows[0][i] = 3
					}
					rows[2] = slices.Clone(rows[1])
					for _, tick := range fx.ticks {
						tick[0], tick[2] = 3, tick[1]
					}
					d, err := timeseries.NewDataMatrix(rows)
					if err != nil {
						t.Fatal(err)
					}
					c, err := Build(d, Config{Shards: shards, Engine: core.Config{
						Clusters: 4, Seed: 5, Parallelism: p,
						Cache:  qcache.Options{Enabled: cached},
						Stream: core.StreamConfig{DriftBound: drift},
					}})
					if err != nil {
						t.Fatal(err)
					}
					requireCoordinatorNaive(t, label+" epoch 0", c, true)
					for _, tick := range fx.ticks {
						if err := c.Append(tick); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := c.Advance(); err != nil {
						t.Fatal(err)
					}
					requireCoordinatorNaive(t, label+" epoch 1", c, drift == 0)
				}
			}
		}
	}
}
