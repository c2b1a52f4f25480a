package sched

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d, want 3", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := Workers(-2); got < 1 {
		t.Errorf("Workers(-2) = %d, want >= 1", got)
	}
}

func TestNumBlocks(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{4, 100, 4},
		{4, 3, 3},
		{4, 0, 0},
		{4, -1, 0},
		{0, 10, 1},
		{1, 10, 1},
	}
	for _, c := range cases {
		if got := NumBlocks(c.workers, c.n); got != c.want {
			t.Errorf("NumBlocks(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// Blocks must cover [0, n) exactly once with ascending, contiguous chunks
// whose indexes match the w argument.
func TestBlocksCoverage(t *testing.T) {
	f := func(workers uint8, n uint16) bool {
		w, nn := int(workers%16)+1, int(n%2048)
		var mu sync.Mutex
		type chunk struct{ w, lo, hi int }
		var chunks []chunk
		Blocks(w, nn, func(w, lo, hi int) {
			mu.Lock()
			chunks = append(chunks, chunk{w, lo, hi})
			mu.Unlock()
		})
		if nn == 0 {
			return len(chunks) == 0
		}
		if len(chunks) != NumBlocks(w, nn) {
			return false
		}
		seen := make([]bool, nn)
		for _, c := range chunks {
			if c.lo >= c.hi || c.lo != c.w*chunkSize(w, nn) {
				return false
			}
			for i := c.lo; i < c.hi; i++ {
				if i < 0 || i >= nn || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlocksSingleChunkRunsInline(t *testing.T) {
	calls := 0
	Blocks(1, 57, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 57 {
			t.Errorf("single chunk = (%d, %d, %d), want (0, 0, 57)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("fn called %d times, want 1", calls)
	}
}
