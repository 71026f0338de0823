package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// This file pins the DESIGN.md invariant "engines are deterministic given
// (data, seed, config), at any parallelism" end to end: a cold Build and a
// sequence of Advance epochs at Parallelism ∈ {1, 2, 8} must produce
// byte-identical query results — including result ORDER and tie-breaks — and
// equivalent epoch states (identical affine transforms, summaries-derived
// normalizers and counters).

// determinismLevels are the parallelism levels every run is compared across.
var determinismLevels = []int{1, 2, 8}

// buildDeterminismEngines builds one engine per parallelism level on the
// same data and config, then advances each through `rounds` streaming epochs.
func buildDeterminismEngines(t *testing.T, cfg Config, rounds, slide int) []*Engine {
	t.Helper()
	const n, window = 20, 90
	engines := make([]*Engine, len(determinismLevels))
	for li, p := range determinismLevels {
		fx := makeStreamFixture(t, n, window, rounds*slide, 7)
		c := cfg
		c.Parallelism = p
		e, err := Build(fx.window, c)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for r := 0; r < rounds; r++ {
			appendTicks(t, e, fx.ticks[r*slide:(r+1)*slide])
			if _, err := e.Advance(); err != nil {
				t.Fatalf("parallelism %d advance %d: %v", p, r, err)
			}
		}
		engines[li] = e
	}
	return engines
}

// queryCase is one table entry of the determinism harness.
type queryCase struct {
	name string
	run  func(e *Engine) (any, error)
}

// determinismCases enumerate MET/MER/MEC queries across measures
// and methods — including MethodAuto, whose plan choices must also be
// identical at every parallelism level.  Results are compared with %v
// formatting, which preserves order and exact float bits (NaN formats
// stably).
func determinismCases() []queryCase {
	var cases []queryCase
	methods := []Method{MethodNaive, MethodAffine, MethodIndex, MethodAuto}
	for _, m := range stats.AllMeasures() {
		m := m
		for _, method := range methods {
			method := method
			if method == MethodIndex && !measure.Lookup(m).Indexable {
				continue // declared non-indexable (e.g. Jaccard)
			}
			cases = append(cases,
				queryCase{
					name: fmt.Sprintf("threshold/%v/%v", m, method),
					run: func(e *Engine) (any, error) {
						return e.Interval(m, interval.GreaterThan(0.25), method)
					},
				},
				queryCase{
					name: fmt.Sprintf("threshold-below/%v/%v", m, method),
					run: func(e *Engine) (any, error) {
						return e.Interval(m, interval.LessThan(0.75), method)
					},
				},
				queryCase{
					name: fmt.Sprintf("range/%v/%v", m, method),
					run: func(e *Engine) (any, error) {
						return e.Interval(m, interval.Between(-0.5, 0.9), method)
					},
				},
			)
		}
		// Plan-choice stability: the planner's chosen method, row estimate
		// and cost must be identical at every parallelism level.
		cases = append(cases,
			queryCase{
				name: fmt.Sprintf("plan/threshold/%v", m),
				run: func(e *Engine) (any, error) {
					_, p, err := e.Explain(plan.Interval(m, interval.GreaterThan(0.25)), MethodAuto)
					if err != nil {
						return nil, err
					}
					return fmt.Sprintf("%v rows=%d cand=%d cost=%v", p.Method, p.EstimatedRows, p.Candidates, p.EstimatedCost), nil
				},
			},
			queryCase{
				name: fmt.Sprintf("plan/range/%v", m),
				run: func(e *Engine) (any, error) {
					_, p, err := e.Explain(plan.Interval(m, interval.Between(-0.5, 0.9)), MethodAuto)
					if err != nil {
						return nil, err
					}
					return fmt.Sprintf("%v rows=%d cand=%d cost=%v", p.Method, p.EstimatedRows, p.Candidates, p.EstimatedCost), nil
				},
			},
		)
		// MEC queries: index method does not serve MEC, so W_N / W_A / auto.
		for _, method := range []Method{MethodNaive, MethodAffine, MethodAuto} {
			method := method
			if m.Class() == stats.LocationClass {
				cases = append(cases, queryCase{
					name: fmt.Sprintf("compute-location/%v/%v", m, method),
					run: func(e *Engine) (any, error) {
						return e.ComputeLocation(m, e.Data().IDs(), method)
					},
				})
				continue
			}
			cases = append(cases, queryCase{
				name: fmt.Sprintf("compute-pairwise/%v/%v", m, method),
				run: func(e *Engine) (any, error) {
					ids := e.Data().IDs()
					return e.ComputePairwise(m, ids[:10], method)
				},
			})
		}
	}
	cases = append(cases, queryCase{
		name: "sweep-affine/correlation",
		run: func(e *Engine) (any, error) {
			res, err := e.PairwiseSweepAffine(stats.Correlation)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		},
	})
	return cases
}

// assertEnginesAgree runs every query case on all engines and requires the
// rendered results to match the parallelism-1 engine exactly.  skip filters
// out cases whose name contains any of the given substrings (e.g. the affine
// full sweep, which requires an unpruned relationship set).
func assertEnginesAgree(t *testing.T, engines []*Engine, skip ...string) {
	t.Helper()
cases:
	for _, qc := range determinismCases() {
		for _, s := range skip {
			if strings.Contains(qc.name, s) {
				continue cases
			}
		}
		var want string
		for li, e := range engines {
			got, err := qc.run(e)
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", qc.name, determinismLevels[li], err)
			}
			rendered := fmt.Sprintf("%v", got)
			if li == 0 {
				want = rendered
				continue
			}
			if rendered != want {
				t.Errorf("%s: parallelism %d diverges from 1:\n got: %.200s\nwant: %.200s",
					qc.name, determinismLevels[li], rendered, want)
			}
		}
	}
}

// assertStatesEquivalent compares the epoch states of all engines against the
// parallelism-1 engine: epoch counters, relationship sets with exact
// transforms, and the per-series normalizer statistics.
func assertStatesEquivalent(t *testing.T, engines []*Engine) {
	t.Helper()
	ref := engines[0].state()
	for li, e := range engines[1:] {
		p := determinismLevels[li+1]
		st := e.state()
		if st.epoch != ref.epoch {
			t.Fatalf("parallelism %d: epoch %d, want %d", p, st.epoch, ref.epoch)
		}
		if got, want := st.info.NumRelationships, ref.info.NumRelationships; got != want {
			t.Fatalf("parallelism %d: %d relationships, want %d", p, got, want)
		}
		if got, want := st.info.RefitRelationships, ref.info.RefitRelationships; got != want {
			t.Errorf("parallelism %d: refit %d relationships, want %d", p, got, want)
		}
		if st.rel.Len() != ref.rel.Len() {
			t.Fatalf("parallelism %d: %d stored relationships, want %d",
				p, st.rel.Len(), ref.rel.Len())
		}
		for wantRel := range ref.rel.All() {
			pair := wantRel.Pair
			gotRel, ok := st.rel.Relationship(pair)
			if !ok {
				t.Fatalf("parallelism %d: missing relationship for %v", p, pair)
			}
			if gotRel.Pivot != wantRel.Pivot || gotRel.Flipped != wantRel.Flipped {
				t.Fatalf("parallelism %d: relationship %v bookkeeping differs", p, pair)
			}
			for r := 0; r < 2; r++ {
				for c := 0; c < 2; c++ {
					if gotRel.Transform.A[r][c] != wantRel.Transform.A[r][c] {
						t.Fatalf("parallelism %d: transform A[%d,%d] of %v differs: %v vs %v",
							p, r, c, pair, gotRel.Transform.A[r][c], wantRel.Transform.A[r][c])
					}
				}
			}
			if gotRel.Transform.B != wantRel.Transform.B {
				t.Fatalf("parallelism %d: transform b of %v differs", p, pair)
			}
		}
		for i := range ref.seriesMoments.Variance {
			if st.seriesMoments.Stat(timeseries.SeriesID(i)) != ref.seriesMoments.Stat(timeseries.SeriesID(i)) {
				t.Fatalf("parallelism %d: per-series stats of %d differ", p, i)
			}
			if st.calibA[i] != ref.calibA[i] || st.calibB[i] != ref.calibB[i] {
				t.Fatalf("parallelism %d: calibration of %d differs", p, i)
			}
		}
	}
}

func TestDeterminismColdBuild(t *testing.T) {
	engines := buildDeterminismEngines(t, Config{Clusters: 4, Seed: 5}, 0, 1)
	assertEnginesAgree(t, engines)
	assertStatesEquivalent(t, engines)
}

func TestDeterminismAfterAdvances(t *testing.T) {
	cfg := Config{Clusters: 4, Seed: 5}
	engines := buildDeterminismEngines(t, cfg, 3, 6)
	for li, e := range engines {
		if e.Epoch() != 3 {
			t.Fatalf("parallelism %d: epoch %d, want 3", determinismLevels[li], e.Epoch())
		}
	}
	assertEnginesAgree(t, engines)
	assertStatesEquivalent(t, engines)
}

func TestDeterminismAfterAdvancesWithDriftBound(t *testing.T) {
	// A positive drift bound exercises the parallel drift scoring and the
	// partial-refit merge path.
	cfg := Config{Clusters: 4, Seed: 5, Stream: StreamConfig{DriftBound: 0.05}}
	engines := buildDeterminismEngines(t, cfg, 3, 6)
	assertEnginesAgree(t, engines)
	assertStatesEquivalent(t, engines)
}

func TestDeterminismWithPruning(t *testing.T) {
	// MaxLSFD pruning plus parallelism: pruned-pair fallbacks must behave the
	// same at every level.
	cfg := Config{Clusters: 4, Seed: 5, MaxLSFD: 0.4}
	engines := buildDeterminismEngines(t, cfg, 2, 6)
	assertEnginesAgree(t, engines, "sweep-affine")
}

// TestDeterministicRebuild pins that two identical sequential builds agree —
// the index pivot order must not depend on map iteration.
func TestDeterministicRebuild(t *testing.T) {
	build := func() *Engine {
		fx := makeStreamFixture(t, 20, 90, 0, 7)
		e, err := Build(fx.window, Config{Clusters: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := build(), build()
	for _, m := range []stats.Measure{stats.Covariance, stats.Correlation, stats.Mean} {
		ra, err := a.Interval(m, interval.GreaterThan(0.2), MethodIndex)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Interval(m, interval.GreaterThan(0.2), MethodIndex)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", ra) != fmt.Sprintf("%v", rb) {
			t.Fatalf("rebuild changed %v threshold result order:\n%v\nvs\n%v", m, ra, rb)
		}
	}
}

// TestTieOrderingStable pins the duplicate-key ordering of index scans: with
// constant-shifted copies of one series, many pairs share the same scalar
// projection, and the scan order must still be reproducible.
func TestTieOrderingStable(t *testing.T) {
	const n, samples = 12, 64
	series := make([][]float64, n)
	base := make([]float64, samples)
	for i := range base {
		base[i] = math.Sin(float64(i) / 5)
	}
	for v := range series {
		s := make([]float64, samples)
		for i := range s {
			s[i] = base[i] + float64(v)*0.001
		}
		series[v] = s
	}
	d, err := timeseries.NewDataMatrix(series)
	if err != nil {
		t.Fatal(err)
	}
	build := func(p int) *Engine {
		e, err := Build(d, Config{Clusters: 2, Seed: 3, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var want string
	for _, p := range determinismLevels {
		e := build(p)
		res, err := e.Interval(stats.Covariance, interval.GreaterThan(0.0), MethodIndex)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v", res.Pairs)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("parallelism %d changes tie ordering:\n%s\nvs\n%s", p, got, want)
		}
	}
}
