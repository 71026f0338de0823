package core

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
)

// snapshotFixtureBytes builds the engine behind testdata/snapshot_pr17.bin —
// an LSFD bound that prunes some pairs, three drift-selected refits — and
// returns its snapshot.
func snapshotFixtureBytes(t testing.TB) (*Engine, []byte) {
	t.Helper()
	fx := makeStreamFixture(t, 14, 60, 12, 3)
	e, err := Build(fx.window, Config{
		Clusters: 3, Seed: 9, MaxLSFD: 0.05,
		Stream: StreamConfig{DriftBound: 0.02, StatsRefreshEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		for _, tick := range fx.ticks[epoch*4 : epoch*4+4] {
			if err := e.Append(tick); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return e, buf.Bytes()
}

// fitAgreement is how far, in σ units of the final window, a moment-form
// transform may sit from the kernel's fit of the same relationship: the
// bound EXPERIMENTS.md's moment-form numerics hold the two routes to
// on the benchmark's datasets.
const fitAgreement = 1e-9

// TestSnapshotBytesMatchMapStoreFixture: the fixture was written by the
// engine while its relationships still lived in two maps (the commit before
// the slot store) and its fits still went through the kernel; it is never
// regenerated.  A snapshot decoded from it must write the same bytes back,
// and the same epoch built today must decode to the same assignment list —
// the same pruned pairs — with every transform within fitAgreement of the
// fixture's (the fits are the moment form's now, not the kernel's bits).
func TestSnapshotBytesMatchMapStoreFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshot_pr17.bin")
	if err != nil {
		t.Fatal(err)
	}
	e, got := snapshotFixtureBytes(t)
	if e.Relationships().Stats.PrunedRelationships == 0 && e.Relationships().Len() == len(e.Relationships().AssignmentList()) {
		t.Fatal("the fixture engine prunes nothing: the snapshot loses no pair")
	}

	cfg := Config{Clusters: 3, Stream: StreamConfig{DriftBound: 0.02}}
	restored, err := BuildFromSnapshot(e.Data(), bytes.NewReader(want), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("a decoded snapshot does not write the bytes it was decoded from")
	}

	fresh, err := BuildFromSnapshot(e.Data(), bytes.NewReader(got), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Relationships().AssignmentList(), restored.Relationships().AssignmentList()) {
		t.Fatal("a fresh build's snapshot decodes to another assignment list (or pruned set) than the fixture")
	}
	series, centers := e.Data().Moments(), e.Relationships().Clustering.CenterMoments()
	for w := range restored.Relationships().All() {
		g, _ := fresh.Relationships().Relationship(w.Pair)
		ss, sy := math.Sqrt(series.Variance[w.Common()]), math.Sqrt(series.Variance[w.Other()])
		sr := math.Sqrt(centers.Variance[w.Pivot.Cluster])
		a, b := g.Transform, w.Transform
		for _, diff := range []float64{
			math.Abs(a.A[0][0] - b.A[0][0]), math.Abs(a.A[1][0]-b.A[1][0]) * sr / ss, math.Abs(a.B[0]-b.B[0]) / ss,
			math.Abs(a.A[0][1]-b.A[0][1]) * ss / sy, math.Abs(a.A[1][1]-b.A[1][1]) * sr / sy, math.Abs(a.B[1]-b.B[1]) / sy,
		} {
			if !(diff <= fitAgreement) {
				t.Fatalf("pair %v: fresh transform %v, fixture %v: %.3g σ apart", w.Pair, a, b, diff)
			}
		}
	}

	// The decoded records are the assignment list — in file order, indexed
	// once — and the first Advance refits over that same layout instead of
	// reconstructing and re-sorting a list.
	rel := restored.Relationships()
	if len(rel.AssignmentList()) != rel.Len() {
		t.Fatalf("decoded %d assignments for %d relationships", len(rel.AssignmentList()), rel.Len())
	}
	for i, a := range rel.AssignmentList() {
		inOrder := true
		if i > 0 {
			prev := rel.AssignmentList()[i-1].Pair
			inOrder = prev.U < a.Pair.U || (prev.U == a.Pair.U && prev.V < a.Pair.V)
		}
		if rel.At(i) == nil || rel.At(i).Pair != a.Pair || !inOrder {
			t.Fatalf("decoded slot %d is out of file order", i)
		}
	}
	fx := makeStreamFixture(t, 14, 60, 12, 3)
	for _, tick := range fx.ticks[:4] {
		if err := restored.Append(tick); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := restored.Advance(); err != nil {
		t.Fatal(err)
	}
	if restored.Relationships().Layout() != rel.Layout() {
		t.Fatal("the decoded engine's first Advance rebuilt its assignment layout")
	}
}
