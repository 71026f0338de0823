package symex

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"affinity/internal/cluster"
	"affinity/internal/kernel"
	"affinity/internal/timeseries"
)

// requirePairCov holds res.PairCov() to kernel.CovBlock over the canonical
// pairs of res's assignments on window d, bit for bit: the values the naive
// sweeps' exact evaluator gives the same pairs.
func requirePairCov(t *testing.T, label string, d *timeseries.DataMatrix, res *Result) {
	t.Helper()
	got := res.PairCov()
	assignments := res.AssignmentList()
	if len(got) != len(assignments) {
		t.Fatalf("%s: %d pair covariances for %d assignments", label, len(got), len(assignments))
	}
	kern, err := kernel.FromData(d)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]timeseries.Pair, len(assignments))
	for slot, a := range assignments {
		pairs[slot] = a.Pair
	}
	want := make([]float64, len(pairs))
	kern.CovBlock(d.Moments(), pairs, want)
	for slot := range want {
		if math.Float64bits(got[slot]) != math.Float64bits(want[slot]) {
			t.Fatalf("%s: slot %d pair %v: PairCov %x (%v), CovBlock %x (%v)", label, slot, pairs[slot],
				math.Float64bits(got[slot]), got[slot], math.Float64bits(want[slot]), want[slot])
		}
	}
}

// TestPairCovIsCovBlock: a full SYMEX+ fit keeps every assigned pair's
// covariance, equal bit for bit to kernel.CovBlock of the canonical pair —
// after Compute at every parallelism (a guard-routed pivot included, whose
// members the moment form never solves), after a full Refit on a slid window, over a layout whose pivots hit every branch of
// the guard (a constant series among them), and restricted by Subset.  A
// partial Refit, plain SYMEX and a result assembled by NewResult keep none.
func TestPairCovIsCovBlock(t *testing.T) {
	d := correlatedData(t, 41, 3, 14, 90, 0.05)
	clustering, err := cluster.Run(d, cluster.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	for _, p := range []int{1, 2, 8} {
		if res, err = Compute(d, Options{Clustering: clustering, CachePseudoInverse: true, Parallelism: p}); err != nil {
			t.Fatal(err)
		}
		requirePairCov(t, fmt.Sprintf("Compute P=%d", p), d, res)
	}
	if res.Stats.PseudoInverseComputations == 0 {
		t.Fatal("no pivot took the kernel: the guard-routed case is not covered")
	}

	plain, err := Compute(d, Options{Clustering: clustering})
	if err != nil {
		t.Fatal(err)
	}
	if plain.PairCov() != nil {
		t.Fatal("plain SYMEX kept pair covariances")
	}

	next := slideData(t, d, 5, 9)
	full, _, err := Refit(next, res, RefitOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	requirePairCov(t, "full Refit", next, full)

	// A partial refit keeps nothing, however many pairs it refits: neither
	// the previous window's covariances nor a patchwork of two windows.
	for _, every := range []int{1, 3} {
		stale := map[timeseries.Pair]bool{}
		for i, a := range res.AssignmentList() {
			if i%every == 0 {
				stale[a.Pair] = true
			}
		}
		partial, _, err := Refit(next, full, RefitOptions{Stale: stale})
		if err != nil {
			t.Fatal(err)
		}
		if partial.PairCov() != nil {
			t.Fatalf("a partial Refit of %d of %d pairs kept pair covariances", len(stale), len(res.AssignmentList()))
		}
	}

	dg, guarded := guardData(t, 90)
	g, _, err := Refit(dg, guarded, RefitOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	requirePairCov(t, "guard branches", dg, g)

	if NewResult(res.Layout(), res.Clustering, slices.Collect(res.All())).PairCov() != nil {
		t.Fatal("a result assembled from given relationships has pair covariances")
	}

	// Subset keeps the slots it is given, in that order.
	slots := []int32{9, 2, 40, 0}
	sub, err := res.Subset(slots)
	if err != nil {
		t.Fatal(err)
	}
	for i, slot := range slots {
		if sub.AssignmentList()[i] != res.AssignmentList()[slot] || sub.At(i) != res.At(int(slot)) ||
			math.Float64bits(sub.PairCov()[i]) != math.Float64bits(res.PairCov()[slot]) {
			t.Fatalf("Subset slot %d (global %d) differs from the source", i, slot)
		}
	}
	if sub, err := plain.Subset(slots); err != nil || sub.PairCov() != nil {
		t.Fatalf("Subset of plain SYMEX: covariances %v, %v", sub.PairCov(), err)
	}
}
