package cluster

import (
	"math"
	"math/rand"
	"testing"

	"affinity/internal/timeseries"
)

// refPick is the reference assignment: the exact projection error onto every
// center, lowest strictly smaller error winning.
func refPick(s []float64, centers [][]float64) int {
	best, bestErr := 0, refProjectionError(s, centers[0])
	for l := 1; l < len(centers); l++ {
		if e := refProjectionError(s, centers[l]); e < bestErr {
			best, bestErr = l, e
		}
	}
	return best
}

// plantedSeries draws a series of length m and kind kind%6 against centers:
// random, a planted near-tie s ∝ r_a + r_b (exact or perturbed in the last
// bits), a multiple of one center, zero, constant, or one center plus noise
// — then scales it by 2^exp.
func plantedSeries(rng *rand.Rand, centers [][]float64, m int, kind uint8, exp int) []float64 {
	s := make([]float64, m)
	a, b := centers[rng.Intn(len(centers))], centers[rng.Intn(len(centers))]
	switch kind % 6 {
	case 0:
		for i := range s {
			s[i] = rng.NormFloat64()
		}
	case 1:
		c := 0.5 + rng.Float64()
		for i := range s {
			s[i] = c * (a[i] + b[i])
			if kind&8 != 0 {
				s[i] *= 1 + 0x1p-50*rng.NormFloat64()
			}
		}
	case 2:
		c := rng.NormFloat64()
		for i := range s {
			s[i] = c * a[i]
		}
	case 3:
	case 4:
		c := rng.NormFloat64()
		for i := range s {
			s[i] = c
		}
	case 5:
		for i := range s {
			s[i] = a[i] + 1e-9*rng.NormFloat64()
		}
	}
	for i := range s {
		s[i] = math.Ldexp(s[i], exp)
	}
	return s
}

// FuzzAssignmentGuard: whenever the dot form accepts an assignment, it is the
// exact route's choice; the exact route itself carries the reference's bits;
// and a whole Run over planted near-ties, duplicates, zero and constant
// series equals the reference Run.  m runs down to 2 and 3, magnitudes across
// 2^±500 for single decisions (2^±200 for whole runs, whose reference Gram
// must not overflow).
func FuzzAssignmentGuard(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), int16(0), uint8(2))
	f.Add(int64(2), uint8(1), uint8(9), int16(-480), uint8(3))
	f.Add(int64(3), uint8(1), uint8(3), int16(300), uint8(4))
	f.Add(int64(4), uint8(0), uint8(4), int16(-300), uint8(5))
	f.Add(int64(5), uint8(40), uint8(2), int16(499), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, mRaw uint8, kind uint8, expRaw int16, kRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + int(mRaw)%40
		k := 2 + int(kRaw)%6
		exp := int(expRaw) % 501
		centers := make([][]float64, k)
		for l := range centers {
			c := make([]float64, m)
			for i := range c {
				c[i] = rng.NormFloat64()
			}
			if l > 0 && rng.Intn(4) == 0 {
				copy(c, centers[rng.Intn(l)]) // a duplicate center: an exact tie
			}
			centers[l] = normalize(c)
		}
		rr := make([]float64, k)
		for l, r := range centers {
			rr[l] = dot(r, r)
		}
		q := make([]float64, k)
		band := guardBand * float64(m) * epsilon

		s := plantedSeries(rng, centers, m, kind, exp)
		want := refPick(s, centers)
		if got := pickExact(s, centers); got != want {
			t.Fatalf("exact route picked %d, reference %d", got, want)
		}
		sq := timeseries.NewMoments([][]float64{s}).SqNorm[0]
		if got, ok := pickByDots(s, sq, centers, rr, band, q); ok && got != want {
			t.Fatalf("guard accepted %d, reference picks %d (q %v)", got, want, q)
		}

		// A whole run: series of every kind, some duplicated, one magnitude.
		n := k + 2 + rng.Intn(12)
		series := make([][]float64, n)
		runExp := exp * 2 / 5
		for v := range series {
			if v > 0 && rng.Intn(5) == 0 {
				series[v] = append([]float64(nil), series[rng.Intn(v)]...)
				continue
			}
			series[v] = plantedSeries(rng, centers, m, kind+uint8(rng.Intn(6)), runExp)
		}
		d, err := timeseries.NewDataMatrix(series)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{K: k, Seed: seed, MinChanges: 1 + rng.Intn(3)}
		gotRun, err := Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRun, err := referenceRun(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(gotRun, wantRun); diff != "" {
			t.Fatalf("Run differs from the reference: %s", diff)
		}
	})
}
