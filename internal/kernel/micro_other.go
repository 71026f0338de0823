//go:build !amd64 || purego

package kernel

// haveAVX2 is false where the AVX2 route is not built.
const haveAVX2 = false

func microAVX2(x0, x1, x2, panel *float64, m, width int, out *[tileRows][panelWidth]float64) {
	panic("kernel: the AVX2 micro-kernel is not built")
}
