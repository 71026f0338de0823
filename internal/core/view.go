package core

import (
	"affinity/internal/scape"
	"affinity/internal/symex"
	"affinity/internal/timeseries"
)

// View is one pinned epoch of an engine: everything it answers reads the same
// immutable engineState, however many Advances land on the engine in the
// meantime.  The engine's own query methods already pin per call; View pins
// across calls, which is what a sharded coordinator needs — a coordinator
// epoch is a vector of shard Views captured behind one atomic pointer, so a
// multi-call scatter-gather (or a streaming top-k merge polling shards one
// node at a time) never straddles a shard's epoch swap.
//
// A View is a Backend: Run and Compute answer queries against the pinned
// epoch, and a coordinator calls Execute, PairValue and Selectivity on its
// shard views directly.  Note that on a restricted (sharded)
// engine the affine PairValue falls back to the naive computation for pairs
// outside the shard's universe; a coordinator routes each pair to its owning
// shard instead.
//
// The zero View is invalid; obtain one from Engine.View.
type View struct {
	*engineState
}

// View captures the engine's current epoch.
func (e *Engine) View() View { return View{e.state()} }

// Restore reinstates an epoch captured with View: a coordinator whose
// cross-shard barrier failed puts its advanced shards back.
func (e *Engine) Restore(v View) { e.cur.Store(v.engineState) }

// Valid reports whether the view is bound to an epoch.
func (v View) Valid() bool { return v.engineState != nil }

// Data returns the epoch's data matrix (read-only).
func (e *engineState) Data() *timeseries.DataMatrix { return e.data }

// Relationships returns the epoch's SYMEX result.
func (e *engineState) Relationships() *symex.Result { return e.rel }

// Index returns the epoch's SCAPE index, or nil when the engine was built
// with SkipIndex.
func (e *engineState) Index() *scape.Index { return e.index }

// Info returns the epoch's build statistics.
func (e *engineState) Info() BuildInfo { return e.info }
