package scape

import (
	"fmt"

	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// BuildLocationOnly constructs an index holding only the global per-series
// location columns — no pivot nodes.  A sharded coordinator needs this because
// location estimates are restriction-dependent: a location column picks each
// series' estimating relationship as the minimum canonical pair over the
// WHOLE relationship set, so a shard's restricted set can pick a different
// relationship than a single global engine would.  The coordinator therefore
// answers L-measure index queries from one location-only index over the union
// of all shards' relationships, which is byte-identical to the single-engine
// index's location columns, while the shards themselves index no L-measures at
// all.  Like every index's, its columns are filled on first use, so an epoch
// nobody asks for an L-measure costs nothing here.
func BuildLocationOnly(d *timeseries.DataMatrix, rel *symex.Result, opts Options) (*Index, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if rel == nil || rel.Len() == 0 {
		return nil, fmt.Errorf("scape: no affine relationships to index")
	}
	idx, err := newIndex(d, rel, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	idx.stats.IndexedLMeasures = len(idx.locationSet)
	return idx, nil
}
