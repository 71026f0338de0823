package core

import (
	"weak"

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
// A View is a Backend: Run answers queries against the pinned epoch, and a
// coordinator calls Execute, BaseValues and Selectivity on its shard views
// directly.  Note that on a restricted (sharded) engine BaseValues gives a
// pair outside the shard's universe the kernels' value by either method; a
// coordinator asks each pair's owning shard instead.
//
// A View from Engine.View holds its epoch for as long as the caller keeps
// it: the epoch escapes, and its memory is never recycled.  A View from
// Engine.Pin holds it until the pin is released.
//
// The zero View is invalid; obtain one from Engine.View or Engine.Pin.
type View struct {
	*engineState
}

// View captures the engine's current epoch.  The epoch escapes: it is never
// recycled, so the View stays valid however long it is kept.
func (e *Engine) View() View { return View{e.escape()} }

// Pin captures the engine's current epoch until release is called, which
// must happen exactly once.  Every query through the View reads that epoch,
// however many Advances land meanwhile; after release the View must not be
// used, because a later Advance may build into the epoch's memory.
func (e *Engine) Pin() (v View, release func()) {
	st := e.acquire()
	return View{st}, func() { e.release(st) }
}

// Restore reinstates an epoch captured with View (or with a Pin not yet
// released): a coordinator whose cross-shard barrier failed puts its advanced
// shards back.  The reinstated epoch escapes, and the one it replaces
// retires.
func (e *Engine) Restore(v View) {
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	v.escaped.Store(true)
	if old := e.cur.Swap(v.engineState); old != v.engineState {
		e.retire(old)
	}
}

// An epoch's lifetime (DESIGN.md, "Epoch lifetime: pins, escapes and
// recycled slabs").  Every query door pins the epoch it reads for the length
// of the call (acquire, release); the accessors that hand epoch internals to
// a caller — View, Relationships — mark it escaped instead.
// An Advance or a Restore retires the epoch it replaces, and the last release
// of a retired epoch that never escaped claims it and offers it, through a
// weak pointer, as the spare the next Advance builds its index, value
// columns and relationship slots — and, on a full refit, its relationships
// and sequence stores — into.  The spare is weak so that an idle
// engine keeps nothing alive for it: a collection that finds no other
// reference frees it, and that Advance allocates as before.

// claimed is engineState.refs of an epoch claimed for recycling: no pin
// succeeds on it any more.
const claimed = -1

// acquire pins the current epoch.  An epoch claimed between the load and the
// pin is retired, so the engine has moved on: load again.
func (e *Engine) acquire() *engineState {
	for {
		if st := e.cur.Load(); st.pin() {
			return st
		}
	}
}

// pin counts one more reader of the epoch, unless it has been claimed.
func (st *engineState) pin() bool {
	for {
		r := st.refs.Load()
		if r == claimed {
			return false
		}
		if st.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release ends a pin; the last reader of a retired epoch reclaims it.
func (e *Engine) release(st *engineState) {
	if st.refs.Add(-1) == 0 && st.retired.Load() {
		e.reclaim(st)
	}
}

// escape returns the current epoch marked as never to be recycled.  It pins
// while it marks, so the epoch cannot be claimed in between.
func (e *Engine) escape() *engineState {
	st := e.acquire()
	st.escaped.Store(true)
	e.release(st)
	return st
}

// retire marks an epoch the engine no longer serves and reclaims it at once
// when nobody reads it; otherwise its last release does.
func (e *Engine) retire(st *engineState) {
	st.retired.Store(true)
	e.reclaim(st)
}

// reclaim claims a retired epoch with no reader and makes it the spare.  The
// escape check after the claim is the one that counts: a View can only have
// marked the epoch while pinning it, so once the claim has shut pins out the
// mark is either visible or never comes.  An escaped epoch gives its claim
// back.
func (e *Engine) reclaim(st *engineState) {
	if st.escaped.Load() || !st.refs.CompareAndSwap(0, claimed) {
		return
	}
	if st.escaped.Load() {
		st.refs.Store(0)
		return
	}
	e.spareMu.Lock()
	e.spare = weak.Make(st)
	e.spareMu.Unlock()
}

// noEpoch stands in for a spare that is gone: it has nothing to build into.
var noEpoch engineState

// takeSpare returns the spare epoch and forgets it, counting the recycle, or
// noEpoch when there is none or a collection freed it.
func (e *Engine) takeSpare() *engineState {
	e.spareMu.Lock()
	st := e.spare.Value()
	e.spare = weak.Pointer[engineState]{}
	e.spareMu.Unlock()
	if st == nil {
		return &noEpoch
	}
	e.recycles.Add(1)
	return st
}

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
