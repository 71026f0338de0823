package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"affinity/internal/mat"
	"affinity/internal/measure"
)

// oracleSlideCopy is SlideCopy as it was before windows became views: it
// copies the whole window into a fresh slab of stride m and copies the
// receiver's sorted columns before sliding them, leaving the receiver's memo
// in place.  It defines what every slid window must hold.
func oracleSlideCopy(d *DataMatrix, batch [][]float64) (*DataMatrix, error) {
	if len(batch) != len(d.series) {
		return nil, fmt.Errorf("%w: batch for %d series, matrix has %d",
			ErrShapeMismatch, len(batch), len(d.series))
	}
	if len(d.series) == 0 {
		return nil, fmt.Errorf("%w: cannot slide an empty matrix", ErrShapeMismatch)
	}
	slide := len(batch[0])
	for v, b := range batch {
		if len(b) != slide {
			return nil, fmt.Errorf("%w: batch for series %d has %d samples, want %d",
				ErrShapeMismatch, v, len(b), slide)
		}
		if mat.HasNaN(b) {
			return nil, fmt.Errorf("timeseries: batch for series %d contains NaN or Inf", v)
		}
	}
	m := d.m
	out := &DataMatrix{
		names:  append([]string(nil), d.names...),
		series: make([][]float64, len(d.series)),
		m:      m,
		start:  d.start + slide,
		slab:   &windowSlab{vals: make([]float64, len(d.series)*m), stride: m},
	}
	for v, s := range d.series {
		w := out.slab.vals[v*m : (v+1)*m : (v+1)*m]
		if slide >= m {
			copy(w, batch[v][slide-m:])
		} else {
			copy(w, s[slide:])
			copy(w[m-slide:], batch[v])
		}
		out.series[v] = w
	}
	out.validated.Store(d.validated.Load())

	d.memoMu.RLock()
	sorted := d.sorted
	if sorted != nil {
		out.sorted = append([]float64(nil), sorted...)
	}
	d.memoMu.RUnlock()
	if sorted != nil {
		for v, s := range d.series {
			w := out.sorted[v*m : (v+1)*m]
			if slide >= m {
				copy(w, out.series[v])
				measure.SortSamples(w)
				continue
			}
			for i, in := range batch[v] {
				replaceSorted(w, s[i], in)
			}
		}
	}
	return out, nil
}

// slidPair is one window of a slide sequence and the oracle's twin of it.
type slidPair struct{ got, want *DataMatrix }

// requireSameWindow holds a slid window to its oracle twin: shape, start
// index, names and every sample bit for bit, and with stats set the sorted
// columns, median, mode and moments too.
func requireSameWindow(t testing.TB, label string, w slidPair, stats bool) {
	t.Helper()
	got, want := w.got, w.want
	if got.NumSeries() != want.NumSeries() || got.NumSamples() != want.NumSamples() || got.StartIndex() != want.StartIndex() {
		t.Fatalf("%s: %d×%d from %d, oracle %d×%d from %d", label, got.NumSeries(), got.NumSamples(), got.StartIndex(),
			want.NumSeries(), want.NumSamples(), want.StartIndex())
	}
	for _, id := range want.IDs() {
		g, _ := got.Series(id)
		o, _ := want.Series(id)
		if !slices.Equal(sampleBits(g), sampleBits(o)) || got.Name(id) != want.Name(id) {
			t.Fatalf("%s series %d (%q): %v, oracle (%q) %v", label, id, got.Name(id), g, want.Name(id), o)
		}
	}
	if !stats {
		return
	}
	gm, wm := got.Moments(), want.Moments()
	for _, f := range [][2][]float64{{gm.Sum, wm.Sum}, {gm.Mean, wm.Mean}, {gm.Variance, wm.Variance}, {gm.SqNorm, wm.SqNorm}} {
		if !slices.Equal(sampleBits(f[0]), sampleBits(f[1])) {
			t.Fatalf("%s: moments %v, oracle %v", label, f[0], f[1])
		}
	}
	for _, id := range want.IDs() {
		g, err := got.SortedSeries(id)
		if err != nil {
			t.Fatal(err)
		}
		o, _ := want.SortedSeries(id)
		if !slices.Equal(sampleBits(g), sampleBits(o)) {
			t.Fatalf("%s series %d: sorted %v, oracle %v", label, id, g, o)
		}
		for name, eval := range map[string]func([]float64) (float64, error){
			"median": measure.MedianOfSorted,
			"mode":   func(s []float64) (float64, error) { return measure.ModeOfSorted(s, 0) },
		} {
			gv, gerr := got.EvalSorted(id, eval)
			ov, oerr := eval(o)
			if (gerr == nil) != (oerr == nil) || math.Float64bits(gv) != math.Float64bits(ov) {
				t.Fatalf("%s series %d: %s %v (%v), oracle %v (%v)", label, id, name, gv, gerr, ov, oerr)
			}
		}
	}
}

func sampleBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// FuzzSlideViews drives random sequences of slides against the copying
// oracle: the newest window sliding in place until its headroom runs out,
// slides of every length around the headroom and the window, two slides from
// one receiver, a discarded result followed by another slide from its
// receiver, Append on a view, and order statistics built on some windows and
// not others so the sorted columns move, stay behind or are re-sorted.  After
// every step each window still alive must equal its oracle twin — the check
// that no slide writes where an older view reads.
func FuzzSlideViews(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x88})
	f.Add(int64(2), uint8(20), uint8(3), uint8(1), []byte{5, 0, 2, 0x83, 0, 4, 0, 0x81, 3, 0x88})
	f.Add(int64(3), uint8(7), uint8(1), uint8(4), []byte{0x85, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x03})
	f.Add(int64(4), uint8(1), uint8(3), uint8(2), []byte{0, 1, 2, 3, 4, 5, 0x80, 0x81})
	f.Add(int64(5), uint8(40), uint8(2), uint8(5), []byte{5, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x42, 0x43, 0x84})
	f.Fuzz(func(t *testing.T, seed int64, m, n, flavour uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		mm, nn := 1+int(m)%48, 1+int(n)%4
		next := sampleSource(flavour, rng)
		fill := func(series, count int) [][]float64 {
			out := make([][]float64, series)
			for v := range out {
				out[v] = make([]float64, count)
				for i := range out[v] {
					out[v][i] = next()
				}
			}
			return out
		}
		rows := fill(nn, mm)
		got, err := NewDataMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewDataMatrix(rows)
		pool := []slidPair{{got, want}}

		// Slide lengths straddle the headroom a fresh slab leaves and the
		// window itself; the op's bits 4–6 pick one.
		h := headroom(mm, 1)
		lengths := []int{1, 2, h, h + 1, mm - 1, mm, mm + 3, 0}
		slide := func(label string, w slidPair, length int) slidPair {
			batch := fill(w.want.NumSeries(), length)
			g, err := w.got.SlideCopy(batch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			o, err := oracleSlideCopy(w.want, batch)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			return slidPair{g, o}
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for step, op := range ops {
			length := lengths[int(op>>4)&7]
			r := rng.Intn(len(pool))
			label := fmt.Sprintf("step %d op %#x slide %d", step, op, length)
			switch op & 7 {
			case 0, 6, 7: // the newest window slides, in place while the room lasts
				pool = append(pool, slide(label, pool[len(pool)-1], length))
			case 1: // any window slides
				pool = append(pool, slide(label, pool[r], length))
			case 2: // two slides from one receiver: the second compacts
				a := slide(label, pool[r], length)
				b := slide(label+" (second)", pool[r], length)
				pool = append(pool, a, b)
			case 3: // a discarded result, then another slide from its receiver
				slide(label+" (discarded)", pool[r], length)
				pool = append(pool, slide(label, pool[r], length))
			case 4: // Append on a view
				extra := fill(1, mm)[0]
				if err := pool[r].got.Append("extra", extra); err != nil {
					t.Fatal(err)
				}
				if err := pool[r].want.Append("extra", extra); err != nil {
					t.Fatal(err)
				}
			case 5: // order statistics on one window, so its sorted columns exist
				requireSameWindow(t, label, pool[r], true)
			}
			if len(pool) > 8 {
				drop := rng.Intn(len(pool) - 1)
				pool = append(pool[:drop], pool[drop+1:]...)
			}
			for i, w := range pool {
				requireSameWindow(t, fmt.Sprintf("%s window %d", label, i), w, op&0x08 != 0)
			}
		}
		for i, w := range pool {
			requireSameWindow(t, fmt.Sprintf("end window %d", i), w, true)
		}
	})
}

// TestConcurrentSlidesClaimTheTipOnce: two goroutines slide one receiver at
// once.  Exactly one of them runs in place — the receiver's slab, shifted —
// and the other compacts into a fresh slab; both hold the oracle's window,
// and exactly one takes the receiver's sorted columns forward.  Run with
// -race.
func TestConcurrentSlidesClaimTheTipOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, m = 4, 32
	for round := 0; round < 50; round++ {
		rows := make([][]float64, n)
		for v := range rows {
			rows[v] = make([]float64, m)
			for i := range rows[v] {
				rows[v][i] = float64(rng.Intn(9))
			}
		}
		base, err := NewDataMatrix(rows)
		if err != nil {
			t.Fatal(err)
		}
		first := [][]float64{{1}, {2}, {3}, {4}}
		d, err := base.SlideCopy(first) // a fresh slab: d is its tip
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			requireSortedParity(t, d, round) // d has sorted columns to hand on
		}
		twin, _ := oracleSlideCopy(base, first)
		batches := [2][][]float64{}
		for g := range batches {
			batches[g] = make([][]float64, n)
			for v := range batches[g] {
				batches[g][v] = []float64{float64(10*g + v), float64(rng.Intn(9))}
			}
		}
		var results [2]*DataMatrix
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[g], errs[g] = d.SlideCopy(batches[g])
			}()
		}
		close(start)
		wg.Wait()
		slab, _, _ := d.Slab()
		inPlace, sorted := 0, 0
		for g, got := range results {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if vals, _, off := got.Slab(); &vals[0] == &slab[0] {
				inPlace++
				if off != 2 {
					t.Fatalf("round %d: the in-place slide sits at offset %d, want 2", round, off)
				}
			}
			if got.sorted != nil {
				sorted++
			}
			want, _ := oracleSlideCopy(twin, batches[g])
			requireSameWindow(t, fmt.Sprintf("round %d slide %d", round, g), slidPair{got, want}, true)
		}
		if inPlace != 1 {
			t.Fatalf("round %d: %d of two concurrent slides ran in place, want exactly 1", round, inPlace)
		}
		if wantSorted := 1 - round%2; sorted != wantSorted {
			t.Fatalf("round %d: %d results took sorted columns, want %d", round, sorted, wantSorted)
		}
		requireSameWindow(t, fmt.Sprintf("round %d receiver", round), slidPair{d, twin}, true)
	}
}
