package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"affinity/internal/interval"
	"affinity/internal/measure"
	"affinity/internal/timeseries"
)

// A data matrix remembers a successful Validate and SlideCopy hands the mark
// on, so a streaming epoch no longer scans its window twice.  Every door that
// takes a window from outside must still scan one that arrives without the
// mark.
func TestNonFiniteWindowRejectedAtEveryDoor(t *testing.T) {
	const n, window = 12, 40
	fx := makeStreamFixture(t, n, window, 4, 31)
	cfg := Config{Clusters: 3, Seed: 1, Stream: StreamConfig{DriftBound: 0.5}}
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := e.WriteSnapshot(&snapshot); err != nil {
		t.Fatal(err)
	}

	// withSample returns a fresh (unmarked) copy of the window with one sample
	// replaced.
	withSample := func(d *timeseries.DataMatrix, v float64) *timeseries.DataMatrix {
		c := d.Clone()
		s, err := c.Series(5)
		if err != nil {
			t.Fatal(err)
		}
		s[window/2] = v
		return c
	}
	batch := make([][]float64, n)
	for v := range batch {
		batch[v] = []float64{fx.ticks[0][v]}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := withSample(fx.window, v)
		if _, err := Build(bad, cfg); err == nil {
			t.Fatalf("Build accepted a window holding %v", v)
		}
		if _, err := BuildFromRelationships(bad, cfg, e.Relationships()); err == nil {
			t.Fatalf("BuildFromRelationships accepted a window holding %v", v)
		}
		if _, err := BuildFromSnapshot(bad, bytes.NewReader(snapshot.Bytes()), cfg); err == nil {
			t.Fatalf("BuildFromSnapshot accepted a window holding %v", v)
		}
		slid, err := e.Data().SlideCopy(batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.AdvanceShared(withSample(slid, v), batch); err == nil {
			t.Fatalf("AdvanceShared accepted a slid window holding %v", v)
		}
		if e.Epoch() != 0 {
			t.Fatalf("a rejected window advanced the engine to epoch %d", e.Epoch())
		}
	}

	// The engine's own slid window, marked by SlideCopy, is what a
	// coordinator hands its shards.
	slid, err := e.Data().SlideCopy(batch)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := e.AdvanceShared(slid, batch); err != nil || info.Epoch != 1 {
		t.Fatalf("AdvanceShared on the engine's own slid window: %+v, %v", info, err)
	}
}

// No build door panics on a missing window, and none accepts a NaN bound:
// a NaN MaxLSFD would prune nothing through the distance route, and a NaN
// DriftBound would refit everything.  +Inf prunes nothing, like 0, and answers
// like it.
func TestBuildDoorsRejectNilWindowAndNaNBounds(t *testing.T) {
	fx := makeStreamFixture(t, 12, 40, 4, 31)
	cfg := Config{Clusters: 3, Seed: 1}
	e, err := Build(fx.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := e.WriteSnapshot(&snapshot); err != nil {
		t.Fatal(err)
	}
	doors := map[string]func(*timeseries.DataMatrix, Config) error{
		"Build": func(d *timeseries.DataMatrix, c Config) error { _, err := Build(d, c); return err },
		"ComputeRelationships": func(d *timeseries.DataMatrix, c Config) error {
			_, err := ComputeRelationships(d, c)
			return err
		},
		"BuildFromRelationships": func(d *timeseries.DataMatrix, c Config) error {
			_, err := BuildFromRelationships(d, c, e.Relationships())
			return err
		},
		"BuildFromSnapshot": func(d *timeseries.DataMatrix, c Config) error {
			_, err := BuildFromSnapshot(d, bytes.NewReader(snapshot.Bytes()), c)
			return err
		},
	}
	nanLSFD, nanDrift := cfg, cfg
	nanLSFD.MaxLSFD = math.NaN()
	nanDrift.Stream.DriftBound = math.NaN()
	for name, door := range doors {
		if err := door(nil, cfg); !errors.Is(err, timeseries.ErrShapeMismatch) {
			t.Errorf("%s on a nil window: %v", name, err)
		}
		for _, c := range []Config{nanLSFD, nanDrift} {
			if err := door(fx.window, c); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s with MaxLSFD %v, DriftBound %v: %v", name, c.MaxLSFD, c.Stream.DriftBound, err)
			}
		}
	}

	inf := cfg
	inf.MaxLSFD = math.Inf(1)
	unbounded, err := Build(fx.window, inf)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{MethodNaive, MethodAffine, MethodIndex} {
		want, err := e.Interval(measure.Correlation, interval.GreaterThan(0.2), method)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unbounded.Interval(measure.Correlation, interval.GreaterThan(0.2), method)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Pairs, want.Pairs) {
			t.Errorf("%v: MaxLSFD +Inf answers %d pairs, 0 answers %d", method, len(got.Pairs), len(want.Pairs))
		}
	}
}
