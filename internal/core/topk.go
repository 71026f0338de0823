package core

import (
	"math"
	"sort"

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
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].value != entries[j].value {
			if largest {
				return entries[i].value > entries[j].value
			}
			return entries[i].value < entries[j].value
		}
		return entries[i].id < entries[j].id
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
