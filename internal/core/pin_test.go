package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/plan"
	"affinity/internal/scape"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// escapedState returns the engine's current epoch for a test to read its
// internals directly.  The epoch escapes, so no later Advance recycles the
// memory the test reads.
func (e *Engine) escapedState() *engineState { return e.escape() }

// epochAnswers renders, bit for bit, what an epoch answers by every method:
// intervals and top-k over a T-, a D- and an L-measure, a pairwise MEC and
// single pair values.  Every index slab, value column, relationship slot and
// base column an epoch recycles is read by one of them.
func epochAnswers(v View) (string, error) {
	var b strings.Builder
	bits := func(xs []float64) {
		for _, x := range xs {
			fmt.Fprintf(&b, "%x ", math.Float64bits(x))
		}
		b.WriteByte('\n')
	}
	specs := []plan.QuerySpec{
		plan.Interval(measure.Correlation, interval.GreaterThan(0)),
		plan.Interval(measure.Covariance, interval.All()),
		plan.TopK(measure.Correlation, 5, true),
		plan.TopK(measure.DotProduct, 5, false),
		plan.Interval(measure.Mean, interval.All()),
	}
	ids := v.Data().IDs()
	for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
		out, _, err := Run(v, specs, method, false)
		if err != nil {
			return "", fmt.Errorf("%v: %w", method, err)
		}
		for _, r := range out {
			fmt.Fprintln(&b, r.Pairs, r.Series)
			bits(r.Values)
		}
		if method == MethodIndex {
			continue
		}
		mec, _, err := Run(v, []plan.QuerySpec{ComputeSpec(measure.Correlation, ids)}, method, false)
		if err != nil {
			return "", fmt.Errorf("%v MEC: %w", method, err)
		}
		for _, row := range mec[0].Matrix {
			bits(row)
		}
		for _, pair := range []timeseries.Pair{{U: 0, V: 1}, {U: 2, V: 7}} {
			x, err := referenceValue(v.engineState, measure.Covariance, pair, method)
			if err != nil {
				return "", fmt.Errorf("%v reference value: %w", method, err)
			}
			bits([]float64{x})
		}
	}
	return b.String(), nil
}

// noCollection turns the collector off for the rest of a test: the spare is
// held weakly, and a collection between two Advances would free it and make
// the recycling counts the test checks depend on the collector's timing.
func noCollection(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// An epoch held across Advances — pinned, or escaped through View — answers
// every method bit for bit what a twin that never advanced answers, while the
// Advances around it recycle the epochs in between.  Once released, a pinned
// epoch is the spare and the next Advance builds into it.
func TestHeldEpochSurvivesRecycling(t *testing.T) {
	noCollection(t)
	const n, window, slide, advances = 16, 48, 4, 4
	fx := makeStreamFixture(t, n, window, slide*(advances+1), 7)
	for _, p := range []int{1, 2} {
		for _, drift := range []float64{0, 0.05} {
			for _, hold := range []string{"pin", "view"} {
				name := fmt.Sprintf("P%d/drift%v/%s", p, drift, hold)
				cfg := Config{Clusters: 3, Seed: 1, Parallelism: p, Stream: StreamConfig{DriftBound: drift}}
				e, err := Build(fx.window, cfg)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := Build(fx.window, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := epochAnswers(twin.View())
				if err != nil {
					t.Fatal(err)
				}
				var v View
				release := func() {}
				if hold == "pin" {
					v, release = e.Pin()
				} else {
					v = e.View()
				}
				// Asked before the Advances, so the held epoch's value and base
				// columns are filled when its neighbours are recycled.
				if got, err := epochAnswers(v); err != nil || got != want {
					t.Fatalf("%s: held epoch before advancing differs from its twin (%v)", name, err)
				}
				for k := range advances {
					appendTicks(t, e, fx.ticks[k*slide:(k+1)*slide])
					if _, err := e.Advance(); err != nil {
						t.Fatal(err)
					}
				}
				if e.recycles.Load() == 0 {
					t.Fatalf("%s: %d Advances recycled no epoch", name, advances)
				}
				if got, err := epochAnswers(v); err != nil || got != want {
					t.Fatalf("%s: held epoch answers differently after %d Advances (%v)", name, advances, err)
				}
				release()
				if hold != "pin" {
					continue
				}
				if e.spare.Value() != v.engineState {
					t.Fatalf("%s: the released epoch is not the spare", name)
				}
				before := e.recycles.Load()
				appendTicks(t, e, fx.ticks[advances*slide:(advances+1)*slide])
				if _, err := e.Advance(); err != nil {
					t.Fatal(err)
				}
				if got := e.recycles.Load() - before; got != 1 {
					t.Fatalf("%s: the Advance after the release recycled %d epochs, want 1", name, got)
				}
			}
		}
	}
}

// Readers whose queries straddle Advances: a reader holding a pin, or a
// View, asks its epoch twice with Advances landing in between and must get the
// same bits, while other readers go through the engine's doors.  Run with
// -race: a recycle that lets a reader in would race the Advance writing into
// its slabs.
func TestQueriesStraddleRecyclingAdvances(t *testing.T) {
	noCollection(t)
	const n, window, slide, rounds = 16, 48, 3, 12
	fx := makeStreamFixture(t, n, window, slide*rounds, 9)
	for _, hold := range []string{"pin", "view"} {
		t.Run(hold, func(t *testing.T) {
			e, err := Build(fx.window, Config{Clusters: 3, Seed: 2, Parallelism: 2, Stream: StreamConfig{DriftBound: 0.05}})
			if err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var asked atomic.Int32
			var wg sync.WaitGroup
			errs := make(chan error, 3)
			reader := func(body func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if err := body(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			// The held epoch is asked twice with three Advances in between,
			// enough for one of them to build into an epoch retired after it.
			reader(func() error {
				var v View
				if hold == "pin" {
					var release func()
					v, release = e.Pin()
					defer release()
				} else {
					v = e.View()
				}
				a, err := epochAnswers(v)
				if err != nil {
					return err
				}
				asked.Add(1)
				for e.Epoch() < v.epoch+3 && !stop.Load() {
					runtime.Gosched()
				}
				b, err := epochAnswers(v)
				if err == nil && a != b {
					err = fmt.Errorf("epoch %d answered differently across Advances", v.epoch)
				}
				return err
			})
			reader(func() error {
				if _, err := e.Interval(measure.Correlation, interval.GreaterThan(0.3), MethodIndex); err != nil {
					return err
				}
				if _, err := e.TopK(measure.Covariance, 4, true, MethodIndex); err != nil {
					return err
				}
				_, err := e.Batch([]plan.QuerySpec{plan.Interval(measure.Correlation, interval.LessThan(0))}, MethodAffine)
				return err
			})
			reader(func() error {
				_, err := e.ComputePairwise(measure.Correlation, e.Data().IDs()[:6], MethodAffine)
				return err
			})
			// The writer starts once the held epoch has a first answer, and
			// the readers stop however the writer ends.
			defer func() {
				stop.Store(true)
				wg.Wait()
			}()
			for asked.Load() == 0 && len(errs) == 0 {
				runtime.Gosched()
			}
			for k := range rounds {
				appendTicks(t, e, fx.ticks[k*slide:(k+1)*slide])
				if _, err := e.Advance(); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if e.recycles.Load() == 0 {
				t.Fatalf("%d Advances recycled no epoch", rounds)
			}
		})
	}
}

// storeAnswers renders the covariance of every pair as an index sharing
// every sequence store of the epoch's index derives it: its ξ are projected
// afresh from the stores' payloads, so they show whatever the stores hold.
func storeAnswers(v View) (string, error) {
	idx, _, err := v.Index().Update(v.Data(), v.Relationships(), map[timeseries.Pair]bool{}, scape.UpdateOptions{})
	if err != nil {
		return "", err
	}
	pairs, values, _, err := idx.PairTopK(measure.Covariance, v.Relationships().Len(), true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintln(&b, pairs)
	for _, x := range values {
		fmt.Fprintf(&b, "%x ", math.Float64bits(x))
	}
	return b.String(), nil
}

// The pin rule across full → partial → full Advances.  The first full
// Advance writes its relationships and index stores into slabs of its own, the
// partial Advance after it shares them, and the second full Advance recycles
// the epoch that owns them: it must build into new slabs, since a View held on
// the partial epoch still reads them.  That View answers bit for bit what its
// twin — the same Advances on an engine whose every epoch escapes, so nothing
// is recycled — answers, and its relationships and index stores keep their
// bits.
func TestFullRefitRespectsAPinnedEpoch(t *testing.T) {
	noCollection(t)
	const n, window, small = 16, 48, 4
	slides := []int{window, small, window} // full, partial, full
	fx := makeStreamFixture(t, n, window, 2*window+small, 13)
	for _, p := range []int{1, 2} {
		// No relationship drifts past this bound: the partial Advance shares
		// every relationship and every store.
		cfg := Config{Clusters: 3, Seed: 1, Parallelism: p, Stream: StreamConfig{DriftBound: 1e300}}
		e, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := Build(fx.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin.View() // every epoch of the twin escapes
		var held, heldTwin View
		var release func()
		var want string
		var rels []symex.Relationship
		at := 0
		for k, slide := range slides {
			if k == 2 {
				held, release = e.Pin()
				heldTwin = twin.View()
				if want, err = epochAnswers(heldTwin); err != nil {
					t.Fatal(err)
				}
				if got, err := epochAnswers(held); err != nil || got != want {
					t.Fatalf("P%d: the partial epoch differs from its twin before the full Advance (%v)", p, err)
				}
				for r := range held.Relationships().All() {
					rels = append(rels, *r)
				}
			}
			for _, eng := range []*Engine{e, twin} {
				appendTicks(t, eng, fx.ticks[at:at+slide])
				info, err := eng.Advance()
				if err != nil {
					t.Fatal(err)
				}
				if info.FullRefit != (slide == window) || !info.FullRefit && info.RefitRelationships != 0 {
					t.Fatalf("P%d: Advance %d: full refit %v with %d refit, want full %v or nothing refit",
						p, k+1, info.FullRefit, info.RefitRelationships, slide == window)
				}
			}
			twin.View()
			at += slide
		}
		// Advances 2 and 3 recycled epochs 0 and 1; the last one must not have
		// written into epoch 1's relationships, which epoch 2 shares.
		if got, twins := e.recycles.Load(), twin.recycles.Load(); got != 2 || twins != 0 {
			t.Fatalf("P%d: %d Advances recycled %d epochs and %d of the twin's, want 2 and 0", p, len(slides), got, twins)
		}
		if got, err := epochAnswers(held); err != nil || got != want {
			t.Fatalf("P%d: the pinned partial epoch answers differently after a full Advance recycled the epoch it shares with (%v)", p, err)
		}
		stores, err := storeAnswers(held)
		if err != nil {
			t.Fatal(err)
		}
		if wantStores, err := storeAnswers(heldTwin); err != nil || stores != wantStores {
			t.Fatalf("P%d: the pinned partial epoch's index stores differ from its twin's (%v)", p, err)
		}
		slot := 0
		for r := range held.Relationships().All() {
			if *r != rels[slot] {
				t.Fatalf("P%d: relationship of slot %d changed under the pinned epoch", p, slot)
			}
			slot++
		}
		release()
	}
}
