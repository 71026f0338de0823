package core

import (
	"cmp"
	"math"
	"slices"

	"affinity/internal/timeseries"
)

// topSeries selects the k best series under the shared total order: by value
// in the requested direction, ties broken by ascending series identity.
// values[i] belongs to ids[i]; NaN values never rank.
func topSeries(ids []timeseries.SeriesID, values []float64, k int, largest bool) QueryResult {
	type entry struct {
		id    timeseries.SeriesID
		value float64
	}
	entries := make([]entry, 0, len(ids))
	for i, id := range ids {
		if !math.IsNaN(values[i]) {
			entries = append(entries, entry{id: id, value: values[i]})
		}
	}
	// A strict total order but for a repeated id, whose entries are identical.
	slices.SortFunc(entries, func(a, b entry) int {
		if a.value != b.value { // ±0 tie, like every other equal pair of values
			if (a.value > b.value) == largest {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	res := QueryResult{
		Series: make([]timeseries.SeriesID, len(entries)),
		Values: make([]float64, len(entries)),
	}
	for i, e := range entries {
		res.Series[i] = e.id
		res.Values[i] = e.value
	}
	return res
}
