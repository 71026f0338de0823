package core

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
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
			if _, err := e.Interval(measure.Mean, interval.GreaterThan(0), method); err != nil {
				t.Fatal(err)
			}
			if _, err := e.TopK(measure.Mean, 3, true, method); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Explain(plan.Interval(measure.Mean, interval.AtMost(1)), method); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Interval(measure.Correlation, interval.GreaterThan(0.5), method); err != nil {
				t.Fatal(err)
			}
			if _, err := e.TopK(measure.EuclideanDistance, 4, false, method); err != nil {
				t.Fatal(err)
			}
			if method == MethodIndex {
				continue
			}
			if _, err := e.ComputePairwise(measure.Covariance, ids[:4], method); err != nil {
				t.Fatal(err)
			}
		}
		// The affine method reads the calibration; the naive one reads the
		// window's memos, the sorted columns for an order statistic.
		if _, err := e.ComputeLocation(measure.Mean, ids, MethodNaive); err != nil {
			t.Fatal(err)
		}
		for _, m := range measure.ByClass(measure.LocationClass) {
			if _, err := e.ComputeLocation(m, ids, MethodAffine); err != nil {
				t.Fatal(err)
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
		if _, err := restored.Interval(measure.Mean, interval.GreaterThan(0), MethodIndex); err != nil {
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

	if _, err := e.Interval(measure.Median, interval.GreaterThan(0), MethodIndex); err != nil {
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

// TestNaiveLocationReadsWindowMemo: the naive L-measure route reads the
// window's memos — its moments for the mean, its sorted columns for the median
// and mode — so after one warm-up call a ComputeLocation over every series
// allocates its answer and nothing per series, and every value has the bits
// of the measure's EvalLocation over the raw series, at epoch 0 and after
// Advances that slide the sorted columns on.
func TestNaiveLocationReadsWindowMemo(t *testing.T) {
	const n, window, slide, rounds = 20, 64, 3, 3
	for _, drift := range []float64{0, 0.05} {
		fx := makeStreamFixture(t, n, window, slide*rounds, 79)
		e, err := Build(fx.window, Config{Clusters: 4, Seed: 13, Stream: StreamConfig{DriftBound: drift}})
		if err != nil {
			t.Fatal(err)
		}
		ids := fx.window.IDs()
		for round := 0; ; round++ {
			d := e.Data()
			for _, m := range measure.ByClass(measure.LocationClass) {
				got, err := e.ComputeLocation(m, ids, MethodNaive)
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range ids {
					s, _ := d.Series(id)
					want, _ := measure.Lookup(m).EvalLocation(s)
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("DriftBound %v epoch %d: %v of series %d = %v, EvalLocation gives %v", drift, round, m, id, got[i], want)
					}
				}
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := e.ComputeLocation(m, ids, MethodNaive); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 2 {
					t.Fatalf("DriftBound %v epoch %d: a naive %v over %d series allocates %v objects, want at most 2", drift, round, m, n, allocs)
				}
			}
			if !hasSortedColumns(d) {
				t.Fatalf("DriftBound %v epoch %d: the naive median and mode did not read the sorted columns", drift, round)
			}
			if round == rounds {
				break
			}
			appendTicks(t, e, fx.ticks[round*slide:(round+1)*slide])
			if _, err := e.Advance(); err != nil {
				t.Fatal(err)
			}
			if !hasSortedColumns(e.Data()) {
				t.Fatalf("DriftBound %v epoch %d: the Advance did not slide the sorted columns on", drift, round+1)
			}
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
	medianIv, medianTop := plan.Interval(measure.Median, interval.GreaterThan(0)), plan.TopK(measure.Median, 3, false)
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
		{plan.TopK(measure.Mode, 3, true), MethodIndex, BaseFilled},
		{plan.Interval(measure.Mode, interval.AtMost(0)), MethodAuto, BaseReused},
	} {
		if got := explain(step.spec, step.method); got != step.want {
			t.Fatalf("%v by %v reported base values %q, want %q", step.spec, step.method, got, step.want)
		}
	}
	// A batch's first item fills, the next one of the measure finds it.
	_, plans, err := Run(e.View(), []plan.QuerySpec{
		plan.Interval(measure.Mean, interval.AtMost(1)), plan.TopK(measure.Mean, 2, true),
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
// Half the readers ask by Naive, which reads the same sorted columns without
// a fill.  Run with -race (CI does).
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
	for _, m := range []measure.Measure{measure.Median, measure.Mode} {
		specs = append(specs,
			plan.Interval(m, interval.GreaterThan(0)),
			plan.Interval(m, interval.Between(-0.5, 0.5)),
			plan.TopK(m, 5, true),
			plan.TopK(m, 5, false))
	}
	methods := []Method{MethodIndex, MethodNaive}
	for round := 0; round < rounds; round++ {
		v := e.View()
		want := make([][]QueryResult, len(methods))
		for i, method := range methods {
			if want[i], _, err = Run(twin.View(), specs, method, false); err != nil {
				t.Fatal(err)
			}
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
				out, _, err := Run(v, mine, methods[r%len(methods)], false)
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
				if w := want[r%len(methods)][q]; !sameResult(got[r][q], w) {
					t.Fatalf("epoch %d reader %d %v: %v, the sequential twin has %v",
						round, r, spec, got[r][q], w)
				}
			}
		}
	}
	if !hasSortedColumns(twin.Data()) {
		t.Fatal("the twin's window holds no sorted columns: its fills never slid")
	}
}
