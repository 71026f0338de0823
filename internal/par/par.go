// Package par is the shared fan-out helper behind every parallel code path of
// the engine: the AFCLST assignment and center updates, the SYMEX+
// least-squares fits, the pivot summaries, the drift scoring, the SCAPE index
// construction, the sweeps, the index scans and the sharded scatter.
//
// Work is claimed, not handed out: the goroutine that calls Do and its helpers
// take the next index from one atomic cursor, so a job costs one atomic add
// per item plus one goroutine start per helper — and a job the caller can
// finish before a helper is even scheduled costs roughly what it costs inline.
//
// Every helper preserves determinism by construction: work item i always
// writes to slot i of a pre-sized output, so the merged result is identical
// for any parallelism level — only wall-clock time changes.  This is the
// mechanism that makes the DESIGN.md invariant "engines are deterministic
// given (data, seed, config), at any parallelism" hold end to end.
//
// Scratch is the one home of the per-call working buffers those fan-outs
// fill: a call borrows a block's buffers, merges them into its answer — the
// one allocation at its final size — and returns them.  A Scratch keeps what
// it lends for good, so per Scratch the memory held is bounded by the peak
// number of buffers out at once, each sized as the path that fills it bounds
// it.
package par

import (
	"math"
	"sync"
	"sync/atomic"
)

// Do executes fn(i) for i in [0, count) on up to `parallelism` goroutines
// (sequentially when parallelism <= 1): the calling goroutine plus
// parallelism-1 helpers, each claiming the next unclaimed index from a shared
// cursor until none is left, so uneven item costs load-balance automatically.
// fn must be safe to call concurrently for distinct i.
//
// Do returns when the last item has finished, not when the last helper has
// exited: a helper that is scheduled late finds the cursor exhausted and
// returns without touching anything, and fn is never entered after Do has
// returned.
//
// On failure Do returns the error of the LOWEST-INDEXED failing item — not
// whichever failure a worker reported first — so the surfaced error is the
// same at any parallelism and matches the sequential run (which stops at
// exactly that item).  Items above an already-recorded failing index are
// skipped; items below it still run, because one of them could fail and take
// over as the lowest.
func Do(count, parallelism int, fn func(i int) error) error {
	if count == 0 {
		return nil
	}
	if parallelism <= 1 {
		for i := 0; i < count; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if parallelism > count {
		parallelism = count
	}
	j := &job{count: int64(count), fn: fn, done: make(chan struct{})}
	j.failIdx.Store(math.MaxInt64)
	for w := 1; w < parallelism; w++ {
		go j.work()
	}
	if !j.work() {
		// Helpers still hold claimed items; the one that finishes the last
		// item signals.
		<-j.done
	}
	return j.failErr
}

// job is the shared state of one parallel Do call.
type job struct {
	count int64
	fn    func(i int) error
	// next is the claim cursor: Add(1)-1 is the claimed index, and a claim at
	// or beyond count means nothing is left.
	next atomic.Int64
	// finished counts the items that ran or were skipped.  A worker adds its
	// share once, when it finds the cursor exhausted; the one that brings the
	// total to count closes done.
	finished atomic.Int64
	done     chan struct{}
	// failIdx is the lowest failing index recorded so far; failErr is its
	// error, guarded by mu (failIdx doubles as a lock-free skip hint).
	failIdx atomic.Int64
	mu      sync.Mutex
	failErr error
}

// work claims and runs items until the cursor is exhausted.  It reports
// whether this worker finished the job's last outstanding item — the caller
// of Do then has nothing to wait for.
func (j *job) work() (last bool) {
	var ran int64
	for {
		i := j.next.Add(1) - 1
		if i >= j.count {
			break
		}
		ran++
		// A failure at a lower index already owns the result; skipping is
		// safe because this item cannot displace it.  The lowest failing item
		// L is never skipped: only failures set failIdx, and every failure
		// has index >= L.
		if i > j.failIdx.Load() {
			continue
		}
		if err := j.fn(int(i)); err != nil {
			j.mu.Lock()
			if i < j.failIdx.Load() {
				j.failIdx.Store(i)
				j.failErr = err
			}
			j.mu.Unlock()
		}
	}
	if ran == 0 || j.finished.Add(ran) != j.count {
		return false
	}
	close(j.done)
	return true
}

// Block is a half-open index interval [Lo, Hi) of a larger work list.
type Block struct {
	Lo, Hi int
}

// Blocks partitions [0, count) into at most 4·parallelism contiguous blocks
// of near-equal size (at least one item each).  The over-partitioning keeps
// workers busy when item costs are uneven while the block list stays small
// enough that per-block result buffers are cheap to merge.
func Blocks(count, parallelism int) []Block {
	if count <= 0 {
		return nil
	}
	if parallelism <= 1 {
		return []Block{{0, count}}
	}
	numBlocks := 4 * parallelism
	if numBlocks > count {
		numBlocks = count
	}
	out := make([]Block, 0, numBlocks)
	for b := 0; b < numBlocks; b++ {
		lo := b * count / numBlocks
		hi := (b + 1) * count / numBlocks
		if lo < hi {
			out = append(out, Block{Lo: lo, Hi: hi})
		}
	}
	return out
}

// DoBlocks partitions [0, count) into contiguous blocks and executes
// fn(blockIndex, block) for each, in parallel.  The caller typically
// accumulates per-block results into a slice indexed by blockIndex and
// concatenates them in block order, which reproduces the sequential output
// exactly (deterministic merge).
func DoBlocks(count, parallelism int, fn func(b int, blk Block) error) error {
	blocks := Blocks(count, parallelism)
	return Do(len(blocks), parallelism, func(b int) error {
		return fn(b, blocks[b])
	})
}

// FlattenBlocks concatenates per-block result slices in block order into one
// slice — the deterministic merge step paired with DoBlocks.
func FlattenBlocks[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Scratch is the free list of reusable working buffers of type T shared by
// every call of one code path: a call takes a buffer per worker block, fills
// it, copies what it keeps into its own exact-size result and puts the buffer
// back, so steady-state calls allocate their answers and nothing else.  It
// keeps every buffer put back, across garbage collections, and makes a new one
// only when all it holds are out, so it holds at most as many buffers as were
// ever out at once; a buffer keeps whatever capacity it grew to, so the path
// that fills it bounds its size.  The zero value is ready to use and safe for
// concurrent use.
type Scratch[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a buffer — the one put back last, as its last user left it, or
// a new zero one — and whether it was recycled.
func (s *Scratch[T]) Get() (*T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(T), false
	}
	x := s.free[n-1]
	s.free = s.free[:n-1]
	return x, true
}

// Put returns a buffer for reuse; a nil buffer is ignored.  The caller must
// not touch it, or anything that aliases its memory, afterwards.
func (s *Scratch[T]) Put(x *T) {
	if x == nil {
		return
	}
	s.mu.Lock()
	s.free = append(s.free, x)
	s.mu.Unlock()
}
