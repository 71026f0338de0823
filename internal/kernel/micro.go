package kernel

// This file holds the one micro-kernel both full-fit reductions go through:
// the pair triangle (CovTriangle) and the series × centre cross pass
// (CrossPanel).  It reduces tileRows contiguous rows against one panel of up
// to panelWidth columns into one accumulator per (row, column), walking the
// samples in order: each accumulator adds the rounded product of its row's
// and its column's sample j, the expression shape of measure.CovarianceOf and
// DotProductOf, so every sum carries the bits the scalar primitive's loop
// gives it (products commute exactly, so either operand may be the row).
//
// Two routes compute it, and pack lays the panel out for the one that reads
// it.  On amd64 with AVX2 (microAVX2, micro_amd64.s) the panel is packed the
// way GEMM packs its micro-panels, in groups of four columns, each group
// sample-major — sample j of column c at panel[4·m·(c/4) + 4·j + c%4] — and
// one sample broadcasts each row's operand and multiplies it into a group a
// register, then adds: VMULPD then VADDPD, each rounded like the scalar
// multiply and add — never VFMADD, which rounds once and would change the
// bits.  Twelve accumulators cover 3 rows × 16 columns.  Everywhere else
// (other CPUs, other architectures, -tags purego) the panel is column-major —
// column c at panel[c·m:] — and microGo walks a 3×2 register tile over it,
// five contiguous loads feeding six independent add chains; on the
// sample-major panel its strided loads cost it 20–30 %.  The route is chosen
// once, at package init, from the CPU.

// tileRows is the number of rows one micro-kernel call reduces.
const tileRows = 3

// panelWidth is the widest panel one call reduces: four AVX2 registers of
// accumulators per row.
const panelWidth = 16

// useAVX2 selects the micro-kernel's route; it is haveAVX2 but in tests that
// pin the portable one.
var useAVX2 = haveAVX2

// micro sets out[i][c] to Σ_j x[i][j]·y_c[j] for every row i and every
// column c < width of the panel pack filled, one accumulator each in sample
// order; columns from width up are left zero.  The rows share one length m,
// width is a multiple of four no wider than panelWidth, and the panel holds
// width·m samples.
func micro(x *[tileRows][]float64, panel []float64, width int, out *[tileRows][panelWidth]float64) {
	m := len(x[0])
	if width%4 != 0 || width > panelWidth || len(x[1]) < m || len(x[2]) < m || len(panel) < width*m {
		panic("kernel: micro-kernel operands out of shape")
	}
	if m == 0 {
		*out = [tileRows][panelWidth]float64{}
		return
	}
	if useAVX2 {
		microAVX2(&x[0][0], &x[1][0], &x[2][0], &panel[0], m, width, out)
		return
	}
	microGo(x, panel, width, out)
}

// microGo is the portable route: a 3×2 register tile over a column-major
// panel, stepped across the panel's columns.
func microGo(x *[tileRows][]float64, panel []float64, width int, out *[tileRows][panelWidth]float64) {
	x0 := x[0]
	m := len(x0)
	x1, x2 := x[1][:m], x[2][:m]
	*out = [tileRows][panelWidth]float64{}
	for c := 0; c < width; c += 2 {
		y0, y1 := panel[c*m:(c+1)*m], panel[(c+1)*m:(c+2)*m]
		var s00, s01, s10, s11, s20, s21 float64
		for j, a := range x0 {
			b, d, p, q := x1[j], x2[j], y0[j], y1[j]
			s00 += a * p
			s01 += a * q
			s10 += b * p
			s11 += b * q
			s20 += d * p
			s21 += d * q
		}
		out[0][c], out[0][c+1] = s00, s01
		out[1][c], out[1][c+1] = s10, s11
		out[2][c], out[2][c+1] = s20, s21
	}
}

// pack writes column c of an m-sample panel, laid out for the route micro
// takes: col[j] − mean, or zero for padding (a nil col), which the
// micro-kernel reduces but nothing reads.
func pack(panel []float64, m, c int, col []float64, mean float64) {
	if !useAVX2 {
		dst := panel[c*m : (c+1)*m]
		if col == nil {
			clear(dst)
			return
		}
		for j, y := range col[:m] {
			dst[j] = y - mean
		}
		return
	}
	group := panel[4*m*(c/4) : 4*m*(c/4+1)]
	off := c % 4
	if col == nil {
		for j := range m {
			group[4*j+off] = 0
		}
		return
	}
	for j, y := range col[:m] {
		group[4*j+off] = y - mean
	}
}

// roundUp4 is the width a panel of w columns is reduced at.
func roundUp4(w int) int { return (w + 3) &^ 3 }
