// Package par is the shared worker-pool helper behind every parallel code
// path of the engine: the AFCLST assignment and center updates, the SYMEX+
// least-squares fits, the pivot summaries, the drift scoring, the SCAPE
// index construction and the sharded query scans.
//
// Every helper preserves determinism by construction: work item i always
// writes to slot i of a pre-sized output, so the merged result is identical
// for any parallelism level — only wall-clock time changes.  This is the
// mechanism that makes the DESIGN.md invariant "engines are deterministic
// given (data, seed, config), at any parallelism" hold end to end.
package par

import (
	"math"
	"sync"
	"sync/atomic"
)

// Do executes fn(i) for i in [0, count) with up to `parallelism` goroutines
// (sequentially when parallelism <= 1).  Work is handed out via a channel, so
// uneven item costs load-balance automatically; fn must be safe to call
// concurrently for distinct i.
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
	var (
		wg sync.WaitGroup
		// failIdx is the lowest failing index recorded so far; failErr is its
		// error, guarded by mu (failIdx doubles as a lock-free skip hint).
		failIdx atomic.Int64
		mu      sync.Mutex
		failErr error
	)
	failIdx.Store(math.MaxInt64)
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// A failure at a lower index already owns the result; skipping
				// is safe because this item cannot displace it.  The lowest
				// failing item L is never skipped: only failures set failIdx,
				// and every failure has index >= L.
				if int64(i) > failIdx.Load() {
					continue
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if int64(i) < failIdx.Load() {
						failIdx.Store(int64(i))
						failErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < count; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return failErr
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

// Gather runs fn(i) for i in [0, count) in parallel and returns the results
// in index order: out[i] = fn(i).  The output order is independent of the
// scheduling order.
func Gather[T any](count, parallelism int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, count)
	err := Do(count, parallelism, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
