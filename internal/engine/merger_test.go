package engine

import (
	"math"
	"math/rand/v2"
	"testing"
)

// mergeCase is one merge of a reuse sequence: a request and the range it
// is counted over.
type mergeCase struct {
	mem    MemMergeReq
	route  RouteMergeReq
	lo, hi int
}

// genMergeCase draws a small merge over a 96-cell space: up to 12
// processors with duplicate requests, read+write clashes on half the
// cases (disjoint read and write cells on the rest), packed write
// columns on a third, and a [lo, hi) range that shrinks, grows and
// shifts between calls, now and then past the scratch high-water mark.
func genMergeCase(r *rand.Rand) mergeCase {
	const space = 96
	p := 1 + r.IntN(12)
	clash, packed := r.IntN(2) == 0, r.IntN(3) == 0
	c := mergeCase{
		mem:   MemMergeReq{Cells: space, Packed: packed, Reads: make([][]int32, p), Writes: make([][]int32, p)},
		route: RouteMergeReq{P: space, Dsts: make([][]int32, p)},
		lo:    r.IntN(space / 2),
	}
	width := r.IntN(space)
	if r.IntN(8) == 0 {
		width = space + r.IntN(4*space)
	}
	c.hi = c.lo + width
	cell := func(parity int) int32 {
		a := int32(r.IntN(space))
		if !clash {
			a = a&^1 | int32(parity)
		}
		return a
	}
	for pr := range p {
		if r.IntN(4) == 0 {
			continue // idle processor
		}
		for range r.IntN(6) {
			a := cell(0)
			c.mem.Reads[pr] = append(c.mem.Reads[pr], a)
			if r.IntN(3) == 0 {
				c.mem.Reads[pr] = append(c.mem.Reads[pr], a) // duplicate
			}
		}
		for range r.IntN(6) {
			a := cell(1)
			if packed {
				a = PackWrite(int(a), r.IntN(2) == 1)
			}
			c.mem.Writes[pr] = append(c.mem.Writes[pr], a)
			if r.IntN(3) == 0 {
				c.mem.Writes[pr] = append(c.mem.Writes[pr], a) // duplicate
			}
		}
		for range r.IntN(8) {
			c.route.Dsts[pr] = append(c.route.Dsts[pr], int32(r.IntN(space)))
		}
	}
	return c
}

// mergeActive feeds the merger the way the column barrier does: only the
// processors that recorded a request, with their ids, in two calls per
// side, on the ascending path when stream is set and otherwise on the
// marks path, through the run walk when runs is set. It returns the
// merge's answer and whether it answered.
func mergeActive(g *MemMerger, req MemMergeReq, lo, hi int, stream, runs bool) (MergeStats, bool) {
	var procs []int32
	var reads, writes [][]int32
	for pr := range req.Reads {
		if len(req.Reads[pr]) > 0 || len(req.Writes[pr]) > 0 {
			procs = append(procs, int32(pr))
			reads, writes = append(reads, req.Reads[pr]), append(writes, req.Writes[pr])
		}
	}
	half := len(procs) / 2
	g.begin(lo, hi, len(req.Reads), stream)
	g.cols(procs[:half], reads[:half], false, false, runs)
	g.cols(procs[half:], reads[half:], false, false, runs)
	g.cols(procs[:half], writes[:half], true, req.Packed, runs)
	g.cols(procs[half:], writes[half:], true, req.Packed, runs)
	return g.end()
}

// checkReuse runs c on the long-lived mergers and compares each answer
// with a freshly constructed merger's. Odd merges take the column
// barrier's marks path, every other one of them through the run walk,
// even ones Merge; either way one marks merge is one ticket block
// (MemMerger) and one merge one epoch (RouteMerger).
func checkReuse(t *testing.T, i int, mem *MemMerger, route *RouteMerger, c mergeCase) {
	t.Helper()
	var fresh MemMerger
	want := fresh.Merge(c.mem, c.lo, c.hi)
	var got MergeStats
	if i%2 == 0 {
		got = mem.Merge(c.mem, c.lo, c.hi)
	} else {
		got, _ = mergeActive(mem, c.mem, c.lo, c.hi, false, i%4 == 3)
	}
	if got != want {
		t.Fatalf("merge %d [%d,%d) base %d: reused MemMerger = %+v, fresh = %+v", i, c.lo, c.hi, mem.base, got, want)
	}
	var freshRoute RouteMerger
	if got, want := route.Merge(c.route, c.lo, c.hi), freshRoute.Merge(c.route, c.lo, c.hi); got != want {
		t.Fatalf("merge %d [%d,%d) epoch %d: reused RouteMerger = %+v, fresh = %+v", i, c.lo, c.hi, route.epoch, got, want)
	}
}

// TestMergerScratchReuse pins that the ticketed and epoch-stamped scratch forgets
// every earlier merge: one MemMerger and one RouteMerger answer a long
// seeded sequence exactly as fresh mergers do.
func TestMergerScratchReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(1998, 17))
	var mem MemMerger
	var route RouteMerger
	for i := range 2000 {
		checkReuse(t, i, &mem, &route, genMergeCase(r))
	}
}

// TestMergerTicketWrap runs merges of varying width p across the wrap
// of both mergers' scratch stamps. A dense read merge marks every cell
// with tickets just below 2^32, and writes-only merges follow: the first
// finds those read tickets stale only if begin advanced base past them,
// and the first after the ticket wrap finds its predecessor's write
// tickets stale only because the wrap cleared the marks. RouteMerger
// counts nothing in between, so when its epoch wraps back to 1 the
// counts its first, dense merge stamped with epoch 1 are still there,
// and only the clear at the wrap retires them.
func TestMergerTicketWrap(t *testing.T) {
	const cells = 64
	dense := mergeCase{
		mem:   MemMergeReq{Cells: cells, Reads: make([][]int32, 2), Writes: make([][]int32, 2)},
		route: RouteMergeReq{P: cells, Dsts: make([][]int32, 2)},
		hi:    cells,
	}
	for a := range int32(cells) {
		dense.mem.Reads[0] = append(dense.mem.Reads[0], a)
		dense.mem.Writes[1] = append(dense.mem.Writes[1], a)
		dense.route.Dsts[0] = append(dense.route.Dsts[0], a)
	}
	// writes(p) is dense's write side alone, issued by the last of p
	// processors, so a read or an earlier write left over from a merge
	// before it shows as a spurious violation or a doubled count. With
	// route set it also sends dense's messages from a second sender.
	writes := func(p int, route bool) mergeCase {
		c := dense
		c.mem.Reads, c.mem.Writes = make([][]int32, p), make([][]int32, p)
		c.mem.Writes[p-1] = dense.mem.Writes[1]
		c.route.Dsts = nil
		if route {
			c.route.Dsts = [][]int32{nil, dense.route.Dsts[0]}
		}
		return c
	}
	denseMem := dense
	denseMem.route.Dsts = nil

	var mem MemMerger
	var route RouteMerger
	checkReuse(t, 0, &mem, &route, dense) // RouteMerger's epoch 1
	const top = math.MaxUint32
	mem.base, mem.p, route.epoch = top-17, 0, top-3 // the next base is top-16
	steps := []struct {
		c        mergeCase
		wantBase uint32
	}{
		{denseMem, top - 16},         // p=2: tickets up to top-12
		{writes(4, false), top - 11}, // p=4: tickets up to top-3
		{writes(2, false), 0},        // p=2 would pass 2^32−1: the marks clear
		{writes(3, true), 5},         // RouteMerger's epoch wraps to 1
	}
	for i, s := range steps {
		checkReuse(t, i+1, &mem, &route, s.c)
		if mem.base != s.wantBase {
			t.Fatalf("merge %d: base = %d, want %d", i+1, mem.base, s.wantBase)
		}
	}
	if route.epoch != 1 {
		t.Fatalf("RouteMerger epoch after the wrap = %d, want 1 (the wrap restarts at 1)", route.epoch)
	}
	r := rand.New(rand.NewPCG(4099, 17))
	for i := len(steps) + 1; i <= 12; i++ {
		checkReuse(t, i, &mem, &route, genMergeCase(r))
	}
}

// TestPackWriteRoundTrip pins the packed-write codec at the edges of the
// bit-address space: every (cell, bit) pair packs and unpacks to itself,
// and EntryAddr reads the cell back from a packed entry and passes a
// plain one through.
func TestPackWriteRoundTrip(t *testing.T) {
	for _, addr := range []int{0, 1, maxBitCells - 1} {
		for _, bit := range []bool{false, true} {
			e := PackWrite(addr, bit)
			a, b := unpackWrite(e)
			if int(a) != addr || (b == 1) != bit || b > 1 {
				t.Errorf("unpackWrite(PackWrite(%d, %v)) = (%d, %d)", addr, bit, a, b)
			}
			if got := EntryAddr(e, true); int(got) != addr {
				t.Errorf("EntryAddr(PackWrite(%d, %v), packed) = %d", addr, bit, got)
			}
			if got := EntryAddr(int32(addr), false); int(got) != addr {
				t.Errorf("EntryAddr(%d, plain) = %d", addr, got)
			}
		}
	}
}

// TestMergerRunsMatchCells pins MemMerger's run walk to its plain path:
// a merge whose columns hold runs, over a [lo, hi) that cuts runs
// anywhere, answers exactly as the merge of the same columns spelled out
// cell by cell, on the reads and the writes (violations included).
func TestMergerRunsMatchCells(t *testing.T) {
	r := rand.New(rand.NewPCG(2026, 27))
	const space = 96
	var mem, memCells MemMerger
	for i := range 2000 {
		p := 1 + r.IntN(8)
		runs := MemMergeReq{Cells: space, Reads: make([][]int32, p), Writes: make([][]int32, p)}
		cells := MemMergeReq{Cells: space, Reads: make([][]int32, p), Writes: make([][]int32, p)}
		for pr := range p {
			for _, side := range []struct{ runs, cells *[]int32 }{
				{&runs.Reads[pr], &cells.Reads[pr]},
				{&runs.Writes[pr], &cells.Writes[pr]},
			} {
				for range r.IntN(4) {
					a := r.IntN(space)
					k := min(r.IntN(12), space-a)
					*side.runs = appendRun(*side.runs, int32(a), k)
					for c := range k {
						*side.cells = append(*side.cells, int32(a+c))
					}
				}
			}
		}
		lo := r.IntN(space)
		hi := lo + r.IntN(space-lo+1)
		if got, want := mem.Merge(runs, lo, hi), memCells.Merge(cells, lo, hi); got != want {
			t.Fatalf("case %d [%d,%d): merge of runs %+v, of cells %+v", i, lo, hi, got, want)
		}
	}
}

// genAscCase draws a merge whose columns ascend, over a 160-cell space:
// processor pr reads the block [pr·k, pr·k+k+share) and writes the
// block at wbase+pr·k, where share = 1 makes neighbouring blocks share a
// boundary cell (κ = 2). Processors now and then repeat their own last
// cell, sit idle (all but processor 0) or write packed entries. A clean
// case keeps wbase past the reads and clips to a random [lo, hi), which
// can cut blocks on both ends. A descent case gives the last active
// processor a word below the walk's last cell, and a clash case starts
// the writes on the last read cell; both keep the full range, so the
// break lies in it.
func genAscCase(r *rand.Rand) (req MemMergeReq, lo, hi int, clean bool) {
	const space = 160
	p, k, share := 2+r.IntN(9), 2+r.IntN(5), r.IntN(2)
	req = MemMergeReq{Cells: space, Packed: r.IntN(3) == 0, Reads: make([][]int32, p), Writes: make([][]int32, p)}
	shape := r.IntN(4) // 0, 1 clean; 2 descent; 3 clash
	lastRead, lastProc := 0, 0
	for pr := range p {
		if pr > 0 && r.IntN(4) == 0 {
			continue
		}
		a := pr * k
		req.Reads[pr] = appendRun(req.Reads[pr], int32(a), k+share)
		if r.IntN(3) == 0 {
			req.Reads[pr] = append(req.Reads[pr], int32(a+k+share-1))
		}
		lastRead, lastProc = a+k+share-1, pr
	}
	wbase := p*k + share + r.IntN(4)
	if shape == 3 {
		wbase = lastRead
	}
	entry := func(a int) int32 {
		if req.Packed {
			return PackWrite(a, r.IntN(2) == 1)
		}
		return int32(a)
	}
	for pr := range p {
		if len(req.Reads[pr]) == 0 {
			continue
		}
		a, n := wbase+pr*k, k+share
		if !req.Packed {
			req.Writes[pr] = appendRun(req.Writes[pr], int32(a), n)
		} else {
			for c := range n {
				req.Writes[pr] = append(req.Writes[pr], entry(a+c))
			}
		}
		if r.IntN(3) == 0 {
			req.Writes[pr] = append(req.Writes[pr], entry(a+n-1))
		}
	}
	lo, hi = 0, space
	switch shape {
	case 2:
		if r.IntN(2) == 0 {
			req.Reads[lastProc] = append(req.Reads[lastProc], int32(r.IntN(lastRead)))
		} else {
			req.Writes[lastProc] = append(req.Writes[lastProc], entry(wbase+r.IntN(lastProc*k+1)))
		}
	case 3:
	default:
		if r.IntN(2) == 0 {
			lo = r.IntN(space / 2)
			hi = lo + r.IntN(space-lo+1)
		}
		return req, lo, hi, true
	}
	return req, lo, hi, false
}

// TestAscendingMergeMatchesMarks pins the ascending path to the marks
// path it stands in for. Over seeded ascending column sets (blocks that
// share a boundary cell, same-processor repeats, clipping on both ends,
// packed writes, a descent in the last processor's column, a clash), a
// merge that the ascending path answers must answer as the marks path
// does; a clean case must be answered by it, which Merge shows by never
// growing the marks; a descent or a clash must make it give up; and
// Merge must answer as the marks path does either way, also on one
// merger reused across cases, whose marks merges then interleave with
// ascending ones.
func TestAscendingMergeMatchesMarks(t *testing.T) {
	r := rand.New(rand.NewPCG(2026, 28))
	var marks, asc, long MemMerger
	var shared, broke int
	for i := range 3000 {
		req, lo, hi, clean := genAscCase(r)
		want, _ := mergeActive(&marks, req, lo, hi, false, true)
		got, ok := mergeActive(&asc, req, lo, hi, true, true)
		switch {
		case ok && got != want:
			t.Fatalf("case %d [%d,%d): ascending path %+v, marks %+v\n%+v", i, lo, hi, got, want, req)
		case clean && !ok:
			t.Fatalf("case %d [%d,%d): a clean ascending merge gave up\n%+v", i, lo, hi, req)
		case !clean && ok:
			t.Fatalf("case %d: a merge with a descent or a clash was answered on the ascending path: %+v\n%+v", i, got, req)
		}
		var fresh MemMerger
		if st := fresh.Merge(req, lo, hi); st != want {
			t.Fatalf("case %d [%d,%d): Merge %+v, marks %+v\n%+v", i, lo, hi, st, want, req)
		}
		if st := long.Merge(req, lo, hi); st != want {
			t.Fatalf("case %d [%d,%d): reused Merge %+v, marks %+v\n%+v", i, lo, hi, st, want, req)
		}
		if clean && len(fresh.marks) != 0 {
			t.Fatalf("case %d: Merge of a clean ascending request grew the marks to %d cells", i, len(fresh.marks))
		}
		if ok && want.KRead == 2 && want.KWrite == 2 {
			shared++
		}
		if !ok {
			broke++
		}
	}
	if shared == 0 || broke == 0 {
		t.Fatalf("%d merges counted a shared boundary cell on both sides and %d gave up; want some of each", shared, broke)
	}
}
