package core

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/plan"
	"affinity/internal/stats"
	"affinity/internal/timeseries"
)

// hasSortedColumns reports whether a window holds its sorted columns, the
// memo timeseries.DataMatrix.EvalSorted builds on first use and SlideCopy
// moves on.  The field is unexported; reflect reads it without exposing it.
// Callers read it only while no query or Advance runs.
func hasSortedColumns(d *timeseries.DataMatrix) bool {
	return !reflect.ValueOf(d).Elem().FieldByName("sorted").IsNil()
}

// TestNoWindowSortWithoutOrderStatistics: the median and mode columns are
// filled on first use, so a build, a snapshot restore, Advances, and queries
// that name only pairwise measures and the mean never sort a window.  The
// first median query sorts its epoch's window, and from then on every Advance
// hands the sorted columns forward instead of sorting again.
func TestNoWindowSortWithoutOrderStatistics(t *testing.T) {
	const n, window, slide, rounds = 14, 60, 4, 6
	fx := makeStreamFixture(t, n, window, slide*(rounds+2), 67)
	cfg := Config{Clusters: 4, Seed: 13, Stream: StreamConfig{DriftBound: 0.05}}
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := fx.window.IDs()
	ask := func() {
		t.Helper()
		for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex, MethodAuto} {
			if _, err := e.Interval(stats.Mean, interval.GreaterThan(0), method); err != nil {
				t.Fatal(err)
			}
			if _, err := e.TopK(stats.Mean, 3, true, method); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Explain(plan.Interval(stats.Mean, interval.AtMost(1)), method); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Interval(stats.Correlation, interval.GreaterThan(0.5), method); err != nil {
				t.Fatal(err)
			}
			if _, err := e.TopK(stats.EuclideanDistance, 4, false, method); err != nil {
				t.Fatal(err)
			}
			if method == MethodIndex {
				continue
			}
			if _, err := e.ComputePairwise(stats.Covariance, ids[:4], method); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range stats.LMeasures() {
			// The sweep methods read the raw window and the calibration.
			for _, method := range []Method{MethodNaive, MethodAffine} {
				if _, err := e.ComputeLocation(m, ids, method); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var windows []*timeseries.DataMatrix
	for round := 0; round < rounds; round++ {
		ask()
		windows = append(windows, e.Data())
		var buf bytes.Buffer
		if err := e.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := BuildFromSnapshot(e.Data(), &buf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Interval(stats.Mean, interval.GreaterThan(0), MethodIndex); err != nil {
			t.Fatal(err)
		}
		appendTicks(t, e, fx.ticks[round*slide:(round+1)*slide])
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	windows = append(windows, e.Data())
	for i, d := range windows {
		if hasSortedColumns(d) {
			t.Fatalf("epoch %d: a window was sorted though no query asked for an order statistic", i)
		}
	}

	if _, err := e.Interval(stats.Median, interval.GreaterThan(0), MethodIndex); err != nil {
		t.Fatal(err)
	}
	if !hasSortedColumns(e.Data()) {
		t.Fatal("the first median query did not sort its window")
	}
	for round := rounds; round < rounds+2; round++ {
		prev := e.Data()
		appendTicks(t, e, fx.ticks[round*slide:(round+1)*slide])
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
		if hasSortedColumns(prev) || !hasSortedColumns(e.Data()) {
			t.Fatalf("epoch %d: the Advance did not hand the sorted columns forward", round+1)
		}
	}
}

// TestExplainReportsLocationFill: an L-measure query whose Explain reads the
// epoch's location column — to run on the index, or to count an interval's
// rows — reports through the base-values actual whether it filled the column
// or found it filled; one that does not read it reports none.
func TestExplainReportsLocationFill(t *testing.T) {
	const n, window, slide = 12, 50, 3
	fx := makeStreamFixture(t, n, window, slide, 71)
	e, err := Build(fx.window, Config{Clusters: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	explain := func(spec plan.QuerySpec, method Method) string {
		t.Helper()
		_, p, err := e.Explain(spec, method)
		if err != nil {
			t.Fatal(err)
		}
		return p.BaseValues
	}
	medianIv, medianTop := plan.Interval(stats.Median, interval.GreaterThan(0)), plan.TopK(stats.Median, 3, false)
	for _, step := range []struct {
		spec   plan.QuerySpec
		method Method
		want   string
	}{
		{medianTop, MethodNaive, ""},
		{medianTop, MethodAffine, ""},
		{medianIv, MethodNaive, BaseFilled}, // its row count
		{medianIv, MethodAffine, BaseReused},
		{medianTop, MethodIndex, BaseReused},
		{plan.TopK(stats.Mode, 3, true), MethodIndex, BaseFilled},
		{plan.Interval(stats.Mode, interval.AtMost(0)), MethodAuto, BaseReused},
	} {
		if got := explain(step.spec, step.method); got != step.want {
			t.Fatalf("%v by %v reported base values %q, want %q", step.spec, step.method, got, step.want)
		}
	}
	// A batch's first item fills, the next one of the measure finds it.
	_, plans, err := Run(e.View(), []plan.QuerySpec{
		plan.Interval(stats.Mean, interval.AtMost(1)), plan.TopK(stats.Mean, 2, true),
	}, MethodIndex, true)
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].BaseValues != BaseFilled || plans[1].BaseValues != BaseReused {
		t.Fatalf("a mean batch reported %q, %q; want filled, reused", plans[0].BaseValues, plans[1].BaseValues)
	}
	appendTicks(t, e, fx.ticks)
	if _, err := e.Advance(); err != nil {
		t.Fatal(err)
	}
	if got := explain(medianIv, MethodIndex); got != BaseFilled {
		t.Fatalf("the next epoch's first median index query reported %q, want %q", got, BaseFilled)
	}
}

// TestFirstMedianQueriesRaceAdvance: the median and mode columns are filled
// by the first query of an epoch that names them, and the fill reads the
// window's sorted columns, which the next Advance moves forward.  Every epoch,
// many goroutines issue those first queries against one pinned View at once
// while Advance slides its window, so a fill either sorts its window before
// the slide takes the sorted columns on or sorts it afresh after; both must
// equal the answers of a twin engine one goroutine queries, epoch by epoch.
// Run with -race (CI does).
func TestFirstMedianQueriesRaceAdvance(t *testing.T) {
	const n, window, slide, rounds, readers = 16, 80, 5, 8, 6
	fx := makeStreamFixture(t, n, window, slide*rounds, 73)
	cfg := Config{
		Clusters: 4, Seed: 13, Parallelism: 2,
		Stream: StreamConfig{DriftBound: 0.01},
	}
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var specs []plan.QuerySpec
	for _, m := range []stats.Measure{stats.Median, stats.Mode} {
		specs = append(specs,
			plan.Interval(m, interval.GreaterThan(0)),
			plan.Interval(m, interval.Between(-0.5, 0.5)),
			plan.TopK(m, 5, true),
			plan.TopK(m, 5, false))
	}
	for round := 0; round < rounds; round++ {
		v := e.View()
		want, _, err := Run(twin.View(), specs, MethodIndex, false)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		got := make([][]QueryResult, readers)
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Each reader leads with another query, so both columns have
				// several goroutines racing to fill them.
				lead := r % len(specs)
				mine := append(slices.Clone(specs[lead:]), specs[:lead]...)
				out, _, err := Run(v, mine, MethodIndex, false)
				if err == nil {
					out = append(out[len(specs)-lead:], out[:len(specs)-lead]...)
				}
				got[r], errs[r] = out, err
			}()
		}
		close(start)
		for _, engine := range []*Engine{e, twin} {
			appendTicks(t, engine, fx.ticks[round*slide:(round+1)*slide])
			if _, err := engine.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		for r := range got {
			if errs[r] != nil {
				t.Fatalf("epoch %d reader %d: %v", round, r, errs[r])
			}
			for q, spec := range specs {
				if !sameResult(got[r][q], want[q]) {
					t.Fatalf("epoch %d reader %d %v: %v, the sequential twin has %v",
						round, r, spec, got[r][q], want[q])
				}
			}
		}
	}
	if !hasSortedColumns(twin.Data()) {
		t.Fatal("the twin's window holds no sorted columns: its fills never slid")
	}
}
