package kernel

import "testing"

// forEachRoute runs f once per micro-kernel route this CPU and build run —
// the portable one always, the AVX2 one where it is built and the CPU has it
// — with the route pinned, and restores the route init chose.  Tests that
// call it must not run in parallel with one another.
func forEachRoute(t testing.TB, f func(route string)) {
	t.Helper()
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		if avx2 && !haveAVX2 {
			t.Logf("the AVX2 route is not built or not supported here; only the portable one ran")
			continue
		}
		useAVX2 = avx2
		f(routeName(avx2))
	}
}

func routeName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}
