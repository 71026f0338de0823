package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoSequentialAndParallelAgree(t *testing.T) {
	const n = 1000
	for _, p := range []int{0, 1, 2, 4, 8, 33} {
		out := make([]int, n)
		if err := Do(n, p, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallelism %d: out[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestDoZeroCount(t *testing.T) {
	called := false
	if err := Do(0, 8, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for zero count")
	}
}

func TestDoPropagatesError(t *testing.T) {
	want := errors.New("boom")
	for _, p := range []int{1, 4} {
		err := Do(100, p, func(i int) error {
			if i == 37 {
				return fmt.Errorf("item %d: %w", i, want)
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("parallelism %d: err = %v, want wrapped %v", p, err, want)
		}
	}
}

func TestDoErrorSkipsRemainingWork(t *testing.T) {
	var ran atomic.Int64
	err := Do(10000, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() == 10000 {
		t.Log("all items ran despite early error (allowed, but unexpected scheduling)")
	}
}

// TestDoLowestIndexErrorWins pins the deterministic error contract: when
// several items fail, Do returns the error of the lowest-indexed one — the
// same error a sequential run would stop at — regardless of parallelism or
// scheduling.
func TestDoLowestIndexErrorWins(t *testing.T) {
	failAt := map[int]bool{3: true, 7: true, 11: true}
	for _, p := range []int{1, 2, 8, 16} {
		for run := 0; run < 20; run++ {
			err := Do(64, p, func(i int) error {
				if failAt[i] {
					return fmt.Errorf("item %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "item 3 failed" {
				t.Fatalf("parallelism %d run %d: err = %v, want item 3's error", p, run, err)
			}
		}
	}
}

func TestBlocksCoverExactly(t *testing.T) {
	for _, tc := range []struct{ count, parallelism int }{
		{0, 4}, {1, 1}, {1, 8}, {7, 2}, {100, 1}, {100, 3}, {5, 16}, {1000, 8},
	} {
		blocks := Blocks(tc.count, tc.parallelism)
		covered := 0
		prev := 0
		for _, b := range blocks {
			if b.Lo != prev {
				t.Fatalf("count=%d p=%d: block starts at %d, want %d", tc.count, tc.parallelism, b.Lo, prev)
			}
			if b.Hi <= b.Lo {
				t.Fatalf("count=%d p=%d: empty block %+v", tc.count, tc.parallelism, b)
			}
			covered += b.Hi - b.Lo
			prev = b.Hi
		}
		if covered != tc.count {
			t.Fatalf("count=%d p=%d: blocks cover %d items", tc.count, tc.parallelism, covered)
		}
		if tc.count > 0 && prev != tc.count {
			t.Fatalf("count=%d p=%d: blocks end at %d", tc.count, tc.parallelism, prev)
		}
	}
}

func TestDoBlocksDeterministicMerge(t *testing.T) {
	const n = 537
	var want []int
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			want = append(want, i)
		}
	}
	for _, p := range []int{1, 2, 8} {
		blocks := Blocks(n, p)
		parts := make([][]int, len(blocks))
		if err := DoBlocks(n, p, func(b int, blk Block) error {
			for i := blk.Lo; i < blk.Hi; i++ {
				if i%3 == 0 {
					parts[b] = append(parts[b], i)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got := FlattenBlocks(parts)
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: got %d items, want %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: got[%d] = %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestFlattenBlocksEmpty(t *testing.T) {
	if got := FlattenBlocks[int](nil); got != nil {
		t.Fatalf("FlattenBlocks(nil) = %v, want nil", got)
	}
	if got := FlattenBlocks([][]int{nil, {}, nil}); got != nil {
		t.Fatalf("FlattenBlocks(empty parts) = %v, want nil", got)
	}
}

// TestScratchRecycles: a miss returns a fresh zero buffer, a hit returns the
// buffer put back last, as its last user left it, and a nil Put is ignored.
func TestScratchRecycles(t *testing.T) {
	var s Scratch[[]int]
	s.Put(nil)
	if buf, hit := s.Get(); hit || *buf != nil {
		t.Fatalf("a new Scratch returned %v (hit %v), want a fresh zero buffer", *buf, hit)
	}
	var last *[]int
	for i := 0; i < 100; i++ {
		buf, hit := s.Get()
		if hit != (last != nil) || hit && buf != last {
			t.Fatalf("Get = %p (hit %v), want the buffer put back last, %p", buf, hit, last)
		}
		if hit && len(*buf) != 1 {
			t.Fatalf("recycled buffer %v, want its last user's contents", *buf)
		}
		*buf = append((*buf)[:0], i)
		last = buf
		s.Put(buf)
	}
}

// TestScratchKeepsBuffersAcrossCollections: k buffers borrowed at once and put
// back are all still there after two collections — k hits, each a distinct
// buffer — and the next Get makes a new one.
func TestScratchKeepsBuffersAcrossCollections(t *testing.T) {
	const k = 8
	var s Scratch[[]int]
	var wg sync.WaitGroup
	borrowed := make(chan *[]int, k)
	for range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, _ := s.Get()
			borrowed <- buf
		}()
	}
	wg.Wait()
	close(borrowed)
	for buf := range borrowed {
		s.Put(buf)
	}
	runtime.GC()
	runtime.GC()
	seen := map[*[]int]bool{}
	for i := range k {
		buf, hit := s.Get()
		if !hit || seen[buf] {
			t.Fatalf("Get %d after two collections = %p (hit %v, seen before %v), want a distinct kept buffer", i, buf, hit, seen[buf])
		}
		seen[buf] = true
	}
	if buf, hit := s.Get(); hit || seen[buf] {
		t.Fatalf("Get with all %d buffers out = %p (hit %v), want a new one", k, buf, hit)
	}
}

// TestDoEveryIndexExactlyOnce pins the claim cursor: at every count and
// parallelism — fewer items than workers, one item per worker, many items per
// worker — each index runs exactly once.
func TestDoEveryIndexExactlyOnce(t *testing.T) {
	for _, count := range []int{0, 1, 2, 3, 1000} {
		for _, p := range []int{1, 2, 8, 64} {
			ran := make([]atomic.Int32, count)
			if err := Do(count, p, func(i int) error {
				ran[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("count %d parallelism %d: %v", count, p, err)
			}
			for i := range ran {
				if n := ran[i].Load(); n != 1 {
					t.Fatalf("count %d parallelism %d: index %d ran %d times", count, p, i, n)
				}
			}
		}
	}
}

// TestDoFailuresKeepLowerIndices injects failures at several indices: the
// lowest one's error is returned, and no index below it is skipped — any of
// them could have failed and taken over as the lowest.
func TestDoFailuresKeepLowerIndices(t *testing.T) {
	const count = 1000
	for _, failAt := range [][]int{{0}, {1, 2}, {499, 500, 998}, {999}, {17, 3, 640}} {
		lowest := failAt[0]
		fails := make(map[int]bool, len(failAt))
		for _, i := range failAt {
			fails[i] = true
			lowest = min(lowest, i)
		}
		for _, p := range []int{1, 2, 8, 64} {
			ran := make([]atomic.Int32, count)
			err := Do(count, p, func(i int) error {
				ran[i].Add(1)
				if fails[i] {
					return fmt.Errorf("item %d failed", i)
				}
				return nil
			})
			if want := fmt.Sprintf("item %d failed", lowest); err == nil || err.Error() != want {
				t.Fatalf("failures %v parallelism %d: err = %v, want %q", failAt, p, err, want)
			}
			for i := range ran {
				n := ran[i].Load()
				if n > 1 || (i <= lowest && n != 1) {
					t.Fatalf("failures %v parallelism %d: index %d ran %d times", failAt, p, i, n)
				}
			}
		}
	}
}

// TestDoNeverEntersFnAfterReturn pins the completion rule: Do returns when the
// last item has finished, and a helper that gets the processor only afterwards
// finds the cursor exhausted — it never enters fn.  Short jobs with many more
// helpers than items, and items that yield mid-flight, maximise the number of
// helpers still unscheduled when Do returns.
func TestDoNeverEntersFnAfterReturn(t *testing.T) {
	for _, count := range []int{1, 2, 3, 50} {
		for run := 0; run < 200; run++ {
			var returned, late atomic.Bool
			var ran atomic.Int64
			if err := Do(count, 64, func(int) error {
				if returned.Load() {
					late.Store(true)
				}
				runtime.Gosched()
				ran.Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			returned.Store(true)
			if n := ran.Load(); n != int64(count) {
				t.Fatalf("count %d: Do returned with %d items finished", count, n)
			}
			// Let every leftover helper run to its exit.
			for y := 0; y < 100; y++ {
				runtime.Gosched()
			}
			if late.Load() {
				t.Fatalf("count %d run %d: fn entered after Do returned", count, run)
			}
		}
	}
}

// TestDoNested runs Do inside Do — the coordinator → shard → index-scan shape,
// where an outer item's goroutine is the calling worker of an inner job.
func TestDoNested(t *testing.T) {
	const outer, inner = 8, 200
	for _, p := range []int{1, 2, 8, 64} {
		sums := make([]int64, outer)
		err := Do(outer, p, func(o int) error {
			cells := make([]int64, inner)
			if err := Do(inner, p, func(i int) error {
				cells[i] = int64(o*inner + i)
				return nil
			}); err != nil {
				return err
			}
			for _, c := range cells {
				sums[o] += c
			}
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for o, got := range sums {
			if want := int64(o*inner*inner + inner*(inner-1)/2); got != want {
				t.Fatalf("parallelism %d: outer item %d summed to %d, want %d", p, o, got, want)
			}
		}
	}
}

// BenchmarkDo is the fan-out cost on its own: 512 no-op items.
func BenchmarkDo(b *testing.B) {
	for _, p := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := Do(512, p, func(int) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
