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

// TestNoWindowSortWithoutOrderStatistics: a window's sorted columns are built
// on first use, so a build, a snapshot restore, Advances, and queries that
// name only pairwise measures, the mean, or an order statistic by a method
// that reads the calibration never sort a window.  The first naive median
// query sorts its epoch's window, and from then on every Advance hands the
// sorted columns forward instead of sorting again.
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

	if _, err := e.Interval(measure.Median, interval.GreaterThan(0), MethodNaive); err != nil {
		t.Fatal(err)
	}
	if !hasSortedColumns(e.Data()) {
		t.Fatal("the first naive median query did not sort its window")
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

// TestFirstMedianQueriesRaceAdvance: the first naive median or mode query of
// an epoch reads the window's sorted columns, sorting the window unless an
// earlier query has, and the next Advance moves the columns forward.  Every
// epoch, many goroutines issue those first queries against one pinned View at
// once while Advance slides its window, so a reader either sorts its window
// before the slide takes the sorted columns on or sorts it afresh after; both
// must equal the answers of a twin engine one goroutine queries, epoch by
// epoch.  Run with -race (CI does).
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
	for round := 0; round < rounds; round++ {
		v := e.View()
		want, _, err := Run(twin.View(), specs, MethodNaive, false)
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
				// Each reader leads with another query, so several goroutines
				// race to sort the window.
				lead := r % len(specs)
				mine := append(slices.Clone(specs[lead:]), specs[:lead]...)
				out, _, err := Run(v, mine, MethodNaive, false)
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
				if w := want[q]; !sameResult(got[r][q], w) {
					t.Fatalf("epoch %d reader %d %v: %v, the sequential twin has %v",
						round, r, spec, got[r][q], w)
				}
			}
		}
	}
	if !hasSortedColumns(twin.Data()) {
		t.Fatal("the twin's window holds no sorted columns: they never slid")
	}
}

// TestExplainLocationRowsExact: Explain of an L-measure interval reports the
// exact row count of the method the plan runs — the calibration's for Affine,
// Index and an Auto that picks Affine, the window's for Naive — with
// SelectivityExact set, and Auto's choice is the one made without a count.
func TestExplainLocationRowsExact(t *testing.T) {
	fx := makeStreamFixture(t, 14, 60, 0, 71)
	e, err := Build(fx.window, Config{Clusters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []measure.Measure{measure.Mean, measure.Median, measure.Mode} {
		values, err := e.ComputeLocation(m, fx.window.IDs(), MethodNaive)
		if err != nil {
			t.Fatal(err)
		}
		sorted := slices.Sorted(slices.Values(values))
		for _, iv := range []interval.Interval{
			interval.GreaterThan(sorted[len(sorted)/2]),
			interval.AtMost(sorted[len(sorted)/4]),
			interval.Between(sorted[2], sorted[len(sorted)-3]),
		} {
			spec := plan.Interval(m, iv)
			for _, method := range []Method{MethodAuto, MethodNaive, MethodAffine, MethodIndex} {
				res, p, err := e.Explain(spec, method)
				if err != nil {
					t.Fatal(err)
				}
				if !p.SelectivityExact || p.EstimatedRows != len(res.Series) {
					t.Fatalf("%v %v by %v: plan says %d rows (exact=%v), the answer has %d",
						m, iv, method, p.EstimatedRows, p.SelectivityExact, len(res.Series))
				}
				want := method
				if method == MethodAuto {
					want = decide(e.current(), spec).Method
				}
				if p.Method != want {
					t.Fatalf("%v %v by %v: plan runs %v, want %v", m, iv, method, p.Method, want)
				}
			}
		}
	}
}
