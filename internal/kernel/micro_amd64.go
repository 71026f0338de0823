//go:build amd64 && !purego

package kernel

// haveAVX2 reports a CPU and an operating system that run AVX2: the CPU has
// AVX and AVX2, and the OS saves the YMM registers across context switches
// (OSXSAVE set and XCR0 enabling the SSE and AVX state).
var haveAVX2 = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0.
func xgetbv() (eax, edx uint32)

// microAVX2 is micro's AVX2 route: the three rows start at x0, x1 and x2, the
// packed panel at panel, and width is 4, 8, 12 or 16.
//
//go:noescape
func microAVX2(x0, x1, x2, panel *float64, m, width int, out *[tileRows][panelWidth]float64)
