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
	"affinity/internal/scape"
)

// autoShapes returns the interval shapes the planner is probed with for one
// measure, placed by the measure's values on the window: MET above and below,
// MER, the whole range, and open endpoints outside the range of values.
func autoShapes(sp *measure.Spec, values []float64) []interval.Interval {
	sorted := slices.DeleteFunc(slices.Clone(values), math.IsNaN)
	slices.Sort(sorted)
	q := func(f float64) float64 { return sorted[int(f*float64(len(sorted)-1))] }
	below, above := sorted[0]-1, sorted[len(sorted)-1]+1
	if sp.Bounded {
		below, above = sp.RangeMin-1, sp.RangeMax+1
	}
	return []interval.Interval{
		interval.GreaterThan(q(0.8)),
		interval.LessThan(q(0.2)),
		interval.Between(q(0.3), q(0.6)),
		interval.All(),
		interval.GreaterThan(below),
		interval.LessThan(above),
	}
}

// measureValues returns every value of m on the engine's window, naively:
// one per series for an L-measure, one per pair (NaN where undefined)
// otherwise.
func measureValues(t *testing.T, e *core.Engine, m measure.Measure) []float64 {
	t.Helper()
	ids := e.Data().IDs()
	if m.Class() == measure.LocationClass {
		values, err := e.ComputeLocation(m, ids, core.MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		return values
	}
	matrix, err := e.ComputePairwise(m, ids, core.MethodNaive)
	if err != nil {
		t.Fatal(err)
	}
	var values []float64
	for i := range matrix {
		values = append(values, matrix[i][i+1:]...)
	}
	return values
}

// TestAutoMethodMatchesExplain pins that the row count cannot steer
// MethodAuto: for every indexable measure and interval shape, at P ∈ {1, 2,
// 8} on an engine and on coordinators of S ∈ {1, 2} shards, the method Auto
// resolves to without a count is the method Explain plans with the index's
// count, Auto's result is that method's result, and the count Explain
// reports is the index's scan size.
func TestAutoMethodMatchesExplain(t *testing.T) {
	var indexable []measure.Measure
	for _, sp := range measure.Specs() {
		if sp.Indexable {
			indexable = append(indexable, sp.ID)
		}
	}
	fx := makeShardFixture(t, 24, 90, 0, 7)
	for _, p := range parallelismLevels {
		cfg := core.Config{Clusters: 4, Seed: 5, Parallelism: p}
		e, err := core.Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		backends := map[string]core.Backend{"engine": e.View()}
		for _, s := range []int{1, 2} {
			c, err := Build(fx.window, Config{Shards: s, Engine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			backends[fmt.Sprintf("S=%d", s)] = c.state()
		}
		for _, m := range indexable {
			sp := measure.Lookup(m)
			for _, iv := range autoShapes(sp, measureValues(t, e, m)) {
				spec := plan.Interval(m, iv)
				for name, b := range backends {
					label := fmt.Sprintf("P=%d %s %v", p, name, spec)
					auto := plan.DefaultCostModel().Plan(spec, b.Table(), nil).Method
					out, plans, err := core.Run(b, []plan.QuerySpec{spec}, core.MethodAuto, true)
					if err != nil {
						t.Fatal(err)
					}
					if plans[0].Method != auto {
						t.Fatalf("%s: Auto resolves to %v, Explain plans %v", label, auto, plans[0])
					}
					if plans[0].Method == core.MethodIndex && (!plans[0].SelectivityExact || plans[0].EstimatedRows != plans[0].ActualRows) {
						t.Fatalf("%s: the index counted %d rows and scanned %d", label, plans[0].EstimatedRows, plans[0].ActualRows)
					}
					got, err := runSpecs(b, []plan.QuerySpec{spec}, core.MethodAuto)
					if err != nil {
						t.Fatal(err)
					}
					fixed, err := runSpecs(b, []plan.QuerySpec{spec}, plans[0].Method)
					if err != nil {
						t.Fatal(err)
					}
					if render(got, nil) != render(fixed, nil) || render(got, nil) != render(out, nil) {
						t.Fatalf("%s: Auto's result is not %v's", label, plans[0].Method)
					}
				}
			}
		}
	}
}

// countingBackend counts the row counts a Backend is asked for.
type countingBackend struct {
	core.Backend
	asked *int
}

func (b countingBackend) Selectivity(spec plan.QuerySpec) (scape.Selectivity, error) {
	*b.asked++
	return b.Backend.Selectivity(spec)
}

// TestAutoAsksNoEstimate pins that MethodAuto is resolved from the epoch's
// table statistics alone: interval, batch, top-k and compute queries with
// MethodAuto never ask the backend for a row count — on an engine and on a
// 2-shard coordinator — while Explain, which reports the count, does.  Delta
// repair asks for its T-measure completeness count but declines a D-measure
// entry before asking.
func TestAutoAsksNoEstimate(t *testing.T) {
	fx := makeShardFixture(t, 20, 80, 1, 3)
	cfg := core.Config{Clusters: 4, Seed: 5, Parallelism: 2, Stream: core.StreamConfig{DriftBound: 0.5}, Cache: qcache.Options{Enabled: true}}
	e, err := core.Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(fx.window, Config{Shards: 2, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	specs := []plan.QuerySpec{
		plan.Interval(measure.Correlation, interval.GreaterThan(0.5)),
		plan.Interval(measure.Covariance, interval.Between(-0.1, 0.1)),
		plan.Interval(measure.EuclideanDistance, interval.LessThan(2)),
		plan.Interval(measure.Mean, interval.AtLeast(0)),
		plan.TopK(measure.Correlation, 5, true),
	}
	repaired := []plan.QuerySpec{
		plan.Interval(measure.Covariance, interval.AtLeast(0)),
		plan.Interval(measure.Correlation, interval.AtLeast(0)),
	}
	ids := fx.window.IDs()[:6]
	backends := []struct {
		name    string
		current func() core.Backend
		advance func() error
	}{
		{"engine", func() core.Backend { return e.View() }, func() error {
			if err := e.Append(fx.ticks[0]); err != nil {
				return err
			}
			_, err := e.Advance()
			return err
		}},
		{"S=2", func() core.Backend { return c.state() }, func() error {
			if err := c.Append(fx.ticks[0]); err != nil {
				return err
			}
			_, err := c.Advance()
			return err
		}},
	}
	for _, be := range backends {
		asked := 0
		b := countingBackend{be.current(), &asked}
		counted := func(label string, want bool, ask func() error) {
			t.Helper()
			before := asked
			if err := ask(); err != nil {
				t.Fatalf("%s %s: %v", be.name, label, err)
			}
			if got := asked > before; got != want {
				t.Fatalf("%s %s: asked for a row count: %v, want %v", be.name, label, got, want)
			}
		}
		for _, spec := range specs {
			counted(fmt.Sprintf("Auto %v", spec), false, func() error {
				_, _, err := core.Run(b, []plan.QuerySpec{spec}, core.MethodAuto, false)
				return err
			})
		}
		counted("Auto batch", false, func() error {
			_, _, err := core.Run(b, specs, core.MethodAuto, false)
			return err
		})
		counted("Auto compute", false, func() error {
			_, _, err := core.Run(b, []plan.QuerySpec{core.ComputeSpec(measure.Cosine, ids)}, core.MethodAuto, false)
			return err
		})
		counted("Explain", true, func() error {
			_, _, err := core.Run(b, specs[:1], core.MethodAuto, true)
			return err
		})

		// Cache affine entries, slide one tick, and re-ask them: the stale
		// covariance entry is repaired against the count, the correlation
		// entry declines without one.
		if _, _, err := core.Run(b, repaired, core.MethodAffine, false); err != nil {
			t.Fatal(err)
		}
		if err := be.advance(); err != nil {
			t.Fatal(err)
		}
		b = countingBackend{be.current(), &asked}
		counted("covariance repair", true, func() error {
			_, _, err := core.Run(b, repaired[:1], core.MethodAffine, false)
			return err
		})
		counted("correlation repair", false, func() error {
			_, _, err := core.Run(b, repaired[1:], core.MethodAffine, false)
			return err
		})
	}
}
