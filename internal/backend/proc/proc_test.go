package proc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend/proc"
	"repro/internal/engine"
)

// TestMain makes the test binary its own worker binary: a spawned copy
// sees the coordinator's environment, runs the worker loop and exits
// before any test executes.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	os.Exit(m.Run())
}

func testOptions(workers int) proc.Options {
	return proc.Options{
		Workers:           workers,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		RespawnMax:        3,
	}
}

func newCoord(t *testing.T, workers int) *proc.Coordinator {
	t.Helper()
	return newCoordWith(t, testOptions(workers))
}

// newCoordWith starts a coordinator that the test's cleanup closes, then
// checks for leaks: every goroutine the coordinator started (accept and
// handshake loops, readers, reapers) must be gone within a deadline of
// Close, or the test fails with the full stack dump naming the leaker.
// The goroutine count is process-wide, so no proc test runs in parallel.
func newCoordWith(t *testing.T, opt proc.Options) *proc.Coordinator {
	t.Helper()
	baseline := runtime.NumGoroutine()
	c, err := proc.New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		const wait = 10 * time.Second
		deadline := time.Now().Add(wait)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines alive %v after Close, baseline %d:\n%s",
					runtime.NumGoroutine(), wait, baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	return c
}

// randomMemReq builds a deterministic pseudo-random merge request over
// the given cell count.
func randomMemReq(rng *rand.Rand, procs, cells int, packed bool) engine.MemMergeReq {
	req := engine.MemMergeReq{Phase: 1, Attempt: 1, Cells: cells, Packed: packed}
	for p := 0; p < procs; p++ {
		var reads, writes []int32
		for i := rng.Intn(20); i > 0; i-- {
			reads = append(reads, int32(rng.Intn(cells)))
		}
		for i := rng.Intn(20); i > 0; i-- {
			w := int32(rng.Intn(cells))
			if packed {
				w = engine.PackWrite(int(w), rng.Intn(2) == 1)
			}
			writes = append(writes, w)
		}
		req.Reads = append(req.Reads, reads)
		req.Writes = append(req.Writes, writes)
	}
	return req
}

// block appends the k consecutive values base, base+1, …, base+k−1 to
// col.
func block(col []int32, base, k int) []int32 {
	for i := 0; i < k; i++ {
		col = append(col, int32(base+i))
	}
	return col
}

// run appends the k ≥ 2 consecutive cells from base to col as one run,
// the way the batch API stages a block.
func run(col []int32, base, k int) []int32 {
	return append(col, int32(uint32(base)|engine.RunTag), int32(k))
}

// blockMemReq builds a merge request of the shapes the batch API submits.
// Each processor reads one block, staged as a run, then an interleaving
// of plain cells in the lower half of the space with plain cells in the
// upper half, so every rank's entries alternate with another rank's. It
// writes one block: a run, or packed a stretch of consecutive plain
// PackWrite entries, both bits of each cell in turn. Whenever the worker
// count does not divide cells, blocks straddle rank boundaries that fall
// inside one run.
func blockMemReq(rng *rand.Rand, procs, cells int, packed bool) engine.MemMergeReq {
	req := engine.MemMergeReq{Phase: 1, Attempt: 1, Cells: cells, Packed: packed}
	half := cells / 2
	for p := 0; p < procs; p++ {
		base := rng.Intn(cells - 1)
		reads := run(nil, base, min(2+rng.Intn(half), cells-base))
		lo, hi := rng.Intn(half-6), half+rng.Intn(half-6)
		for i := 0; i < 6; i++ {
			reads = append(reads, int32(lo+i), int32(hi+i))
		}
		base = rng.Intn(cells - 1)
		k := min(2+rng.Intn(half), cells-base)
		var writes []int32
		if packed {
			writes = block(nil, int(engine.PackWrite(base, rng.Intn(2) == 1)), 2*k-1)
		} else {
			writes = run(nil, base, k)
		}
		req.Reads = append(req.Reads, reads)
		req.Writes = append(req.Writes, writes)
	}
	return req
}

// TestMergeMemMatchesReference pins the distributed merge to the
// reference merger over the full cell space, across worker counts,
// packed and plain, on random requests and on block-structured ones
// (blockMemReq; 64 cells split 21/21/22 at 3 workers).
func TestMergeMemMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("w%d_packed%v", workers, packed), func(t *testing.T) {
				c := newCoord(t, workers)
				rng := rand.New(rand.NewSource(7))
				var ref engine.MemMerger
				for trial := 0; trial < 50; trial++ {
					shape := randomMemReq
					if trial%2 == 1 {
						shape = blockMemReq
					}
					req := shape(rng, 5, 64, packed)
					req.Phase = trial
					want := ref.Merge(req, 0, req.Cells)
					got, err := c.MergeMem(req)
					if err != nil {
						t.Fatalf("trial %d: MergeMem: %v", trial, err)
					}
					if got != want {
						t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
					}
				}
			})
		}
	}
}

// TestMergeRouteMatchesReference does the same for the routing barrier:
// random destinations over 9 components, and, on odd trials, blocks of
// consecutive destinations over 10 components, which 3 workers split
// 3/3/4, so blocks straddle rank boundaries.
func TestMergeRouteMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			c := newCoord(t, workers)
			rng := rand.New(rand.NewSource(11))
			var ref engine.RouteMerger
			for trial := 0; trial < 50; trial++ {
				req := engine.RouteMergeReq{Phase: trial, Attempt: 1, P: 9}
				if trial%2 == 1 {
					req.P = 10
				}
				for s := 0; s < req.P; s++ {
					var col []int32
					if trial%2 == 1 {
						base := rng.Intn(req.P - 1)
						col = block(col, base, 2+rng.Intn(req.P-base-1))
						col = block(col, rng.Intn(req.P-1), 2)
					} else {
						for i := rng.Intn(15); i > 0; i-- {
							col = append(col, int32(rng.Intn(req.P)))
						}
					}
					req.Dsts = append(req.Dsts, col)
				}
				want := ref.Merge(req, 0, req.P)
				got, err := c.MergeRoute(req)
				if err != nil {
					t.Fatalf("trial %d: MergeRoute: %v", trial, err)
				}
				if got != want {
					t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
				}
			}
		})
	}
}

// TestCrashRealizeRespawns SIGKILLs a worker through the fault-realizer
// hook and checks the next barrier succeeds on a respawned replacement.
func TestCrashRealizeRespawns(t *testing.T) {
	c := newCoord(t, 2)
	req := randomMemReq(rand.New(rand.NewSource(3)), 4, 32, false)
	want, err := c.MergeMem(req)
	if err != nil {
		t.Fatalf("pre-kill merge: %v", err)
	}
	c.Realize(engine.InjectCtx{Cells: 32}, engine.Verdict{Class: engine.FaultCrash, Proc: 1})
	// The kill lands asynchronously; wait for the reader to notice.
	time.Sleep(50 * time.Millisecond)
	got, err := c.MergeMem(req)
	if err != nil {
		t.Fatalf("post-kill merge: %v", err)
	}
	if got != want {
		t.Fatalf("post-kill merge diverged: got %+v want %+v", got, want)
	}
	st := c.Stats()
	if st.Kills != 1 || st.Respawns < 1 {
		t.Fatalf("stats = %+v, want 1 kill and ≥1 respawn", st)
	}
}

// TestDropRealizeTimesOutTransient arms a frame drop and checks the
// barrier surfaces a transient transport error (deadline expiry), then
// recovers on the next attempt.
func TestDropRealizeTimesOutTransient(t *testing.T) {
	c := newCoord(t, 2)
	req := engine.RouteMergeReq{Phase: 0, Attempt: 1, P: 4, Dsts: [][]int32{{1}, {2}, {3}, {0}}}
	c.Realize(engine.InjectCtx{}, engine.Verdict{Class: engine.FaultTransient, Addr: 1, Drop: true})
	_, err := c.MergeRoute(req)
	var te *engine.TransportError
	if !errors.As(err, &te) || te.Permanent {
		t.Fatalf("dropped frame: err = %v, want transient TransportError", err)
	}
	req.Attempt = 2
	if _, err := c.MergeRoute(req); err != nil {
		t.Fatalf("retry after drop: %v", err)
	}
	if st := c.Stats(); st.Drops != 1 {
		t.Fatalf("stats = %+v, want 1 drop", st)
	}
}

// TestDupRealizeIsHarmless arms a frame duplication: the duplicate
// response must be filtered out and both this and the next barrier
// answer correctly. Only rank 0's cells are requested, and the write
// contention grows with the trial, so a stale response of an earlier
// trial cannot pass for the current one.
func TestDupRealizeIsHarmless(t *testing.T) {
	c := newCoord(t, 2)
	var ref engine.MemMerger
	c.Realize(engine.InjectCtx{}, engine.Verdict{Class: engine.FaultTransient, Addr: 0, Drop: false})
	for trial := 0; trial < 3; trial++ {
		req := engine.MemMergeReq{Phase: trial, Attempt: 1, Cells: 48}
		for p := 0; p <= trial; p++ {
			req.Reads = append(req.Reads, []int32{int32(10 + p)})
			req.Writes = append(req.Writes, []int32{3})
		}
		want := ref.Merge(req, 0, req.Cells)
		got, err := c.MergeMem(req)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
		}
	}
	if st := c.Stats(); st.Dups != 1 {
		t.Fatalf("stats = %+v, want 1 dup", st)
	}
}

// TestRespawnBudgetExhaustionPermanent kills the same rank repeatedly:
// once the budget is gone the failure must be permanent.
func TestRespawnBudgetExhaustionPermanent(t *testing.T) {
	opt := testOptions(1)
	opt.RespawnMax = 1
	c := newCoordWith(t, opt)
	req := randomMemReq(rand.New(rand.NewSource(9)), 2, 16, false)
	kill := func() {
		c.Realize(engine.InjectCtx{Cells: 16}, engine.Verdict{Class: engine.FaultCrash, Proc: 0})
		time.Sleep(50 * time.Millisecond)
	}
	kill()
	if _, err := c.MergeMem(req); err != nil {
		t.Fatalf("first respawn should absorb the kill: %v", err)
	}
	kill()
	_, err := c.MergeMem(req)
	var te *engine.TransportError
	if !errors.As(err, &te) || !te.Permanent {
		t.Fatalf("budget exhausted: err = %v, want permanent TransportError", err)
	}
}

// TestCloseFailsMergesPermanently pins the closed-coordinator contract.
func TestCloseFailsMergesPermanently(t *testing.T) {
	c := newCoord(t, 1)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, err := c.MergeMem(engine.MemMergeReq{Cells: 4, Reads: [][]int32{nil}, Writes: [][]int32{nil}})
	var te *engine.TransportError
	if !errors.As(err, &te) || !te.Permanent {
		t.Fatalf("merge after Close: err = %v, want permanent TransportError", err)
	}
}
