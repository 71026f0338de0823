package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"affinity/internal/timeseries"
)

// triIndex is a pair's position in the strict upper triangle, row by row,
// in either orientation.
func triIndex(n int, p timeseries.Pair) int {
	u, v := int(min(p.U, p.V)), int(max(p.U, p.V))
	return u*(2*n-u-1)/2 + v - u - 1
}

// identityAt sends triangle position t to output slot t.
func identityAt(pairs int) []int32 {
	at := make([]int32, pairs)
	for t := range at {
		at[t] = int32(t)
	}
	return at
}

// scaledMatrix builds an n×m window of normals in which, by series id mod 4,
// a series is constant, scaled by 2^500, scaled by 2^−500 or left as it is.
func scaledMatrix(t testing.TB, rng *rand.Rand, n, m int) (*timeseries.DataMatrix, *Matrix, *Moments) {
	t.Helper()
	rows := make([][]float64, n)
	for v := range rows {
		rows[v] = make([]float64, m)
		for j := range rows[v] {
			x := rng.NormFloat64()*10 + float64(v)
			switch v % 4 {
			case 1:
				x = 42
			case 2:
				x = math.Ldexp(x, 500)
			case 3:
				x = math.Ldexp(x, -500)
			}
			rows[v][j] = x
		}
	}
	return mirror(t, rows)
}

// TestCovTriangleMatchesCovBlock holds the full fit's triangle pass to
// CovBlock bit for bit on every pair, at shapes that leave every remainder of
// the panels and of the register tile, over constant and 2^±500-scaled
// columns and at several worker counts.  Besides the whole triangle, a second
// map sends a shuffled half of the pairs to a shorter output (the layout of a
// capped exploration): those get CovBlock's bits, and no other entry of the
// output is written.
func TestCovTriangleMatchesCovBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range []int{2, 3, 4, 5, 17, 33} {
		for _, m := range []int{2, 3, 4, 7, 360, 720} {
			d, k, mo := scaledMatrix(t, rng, n, m)
			pairs := d.AllPairs()
			want := make([]float64, len(pairs))
			k.CovBlock(mo, pairs, want)
			half := identityAt(len(pairs))
			kept := rng.Perm(len(pairs))[:len(pairs)/2]
			for pos := range half {
				half[pos] = -1
			}
			for slot, pos := range kept {
				half[pos] = int32(slot)
			}
			for _, p := range []int{1, 2, 8} {
				label := fmt.Sprintf("n=%d m=%d P=%d", n, m, p)
				got := make([]float64, len(pairs))
				k.CovTriangle(mo, identityAt(len(pairs)), got, p)
				for pos, pair := range pairs {
					if math.Float64bits(got[pos]) != math.Float64bits(want[pos]) {
						t.Fatalf("%s: pair %v reads %x, CovBlock %x", label, pair, math.Float64bits(got[pos]), math.Float64bits(want[pos]))
					}
				}
				sparse := make([]float64, len(kept)+1)
				sparse[len(kept)] = 7
				k.CovTriangle(mo, half, sparse, p)
				for slot, pos := range kept {
					if math.Float64bits(sparse[slot]) != math.Float64bits(want[pos]) {
						t.Fatalf("%s, half the pairs: pair %v reads %x, CovBlock %x", label, pairs[pos], math.Float64bits(sparse[slot]), math.Float64bits(want[pos]))
					}
				}
				if sparse[len(kept)] != 7 {
					t.Fatalf("%s, half the pairs: an unmapped pair was written", label)
				}
			}
		}
	}
}

// benchmarkCovTriangle times the triangle pass over every pair of an n×m
// window at one worker, the way a full fit calls it, and reports ns per pair
// beside BenchmarkCovBlock's.
func benchmarkCovTriangle(b *testing.B, n, m int) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	_, k, mo := mirror(b, rows)
	pairs := n * (n - 1) / 2
	at, out := identityAt(pairs), make([]float64, pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.CovTriangle(mo, at, out, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
}

func BenchmarkCovTriangle(b *testing.B)           { benchmarkCovTriangle(b, 168, 360) }
func BenchmarkCovTriangleLongWindow(b *testing.B) { benchmarkCovTriangle(b, 128, 720) }
