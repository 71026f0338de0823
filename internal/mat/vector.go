package mat

import "math"

// HasNaN reports whether v contains a NaN or infinity.
func HasNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
