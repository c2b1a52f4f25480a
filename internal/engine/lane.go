package engine

import "math"

// Request lanes: the request storage of every engine (Mem, BitMem and
// Route alike).
//
// A machine owns one lane: a processor context whose cursor serves the
// phase's processors one after another, in ascending order, and the
// columns they append to in turn (reads, and writes or sends with their
// values). The lane is reused across phases, so a phase costs
// O(processors dispatched) plus O(requests); a processor that records
// nothing leaves nothing behind. Reading the lane's columns in order
// reads the requests in ascending processor order.

// Request columns: a lane's read and write columns are sequences of
// int32 words in cell space. A plain word (bit 31 clear) is one cell. A
// word with bit 31 set (RunTag) opens a run: its low 31 bits are the first
// cell a, and the low 31 bits of the next word are the run's length n ≥ 2,
// standing for the cells a, a+1, …, a+n−1. The block calls (ReadBlock,
// WriteBlock, WriteFill, BitCtx.ReadWord) stage one run, so a k-cell block
// costs two words whatever k is; the per-cell and batch calls stage plain
// words. The merger, the models' Apply and an attached Backend take the
// runs as they are, and the proc backend puts them on its wire split at
// its rank bounds. Runs hold cells only: a packed store's write column
// holds PackWrite entries, one plain word each. A send column holds plain
// destinations.
//
// A write column's words pair with the value column in order: a plain
// word takes one value and a run n values, one per cell, except a fill
// run, whose length word has bit 31 set too. A fill run (WriteFill) takes
// one value for all its n cells, so a k-cell fill stages two words and one
// value. The fill bit concerns the value column alone: Run masks it, so
// the mergers, a Backend and the proc wire see a fill as the run of its
// cells, and only Apply and the observer emission, which pair cells with
// values, decode it (RunFill).

// RunTag is the bit of a request-column word that opens a run, and of a
// run's length word that makes it a fill run.
const RunTag = 1 << 31

// appendRun appends the k consecutive cells [a, a+k) to the column: a
// run for k ≥ 2, a plain word for k = 1 and nothing for k = 0.
func appendRun(col []int32, a int32, k int) []int32 {
	switch {
	case k == 1:
		return append(col, a)
	case k > 1:
		return append(col, a|math.MinInt32, int32(k))
	}
	return col
}

// appendFill appends the k consecutive cells [a, a+k) that take one
// value: a fill run for k ≥ 2, and for k < 2 what appendRun appends.
func appendFill(col []int32, a int32, k int) []int32 {
	if k > 1 {
		return append(col, a|math.MinInt32, int32(k)|math.MinInt32)
	}
	return appendRun(col, a, k)
}

// Run decodes the request-column word at col[i]: it stands for the n
// cells [a, a+n), and the column's next word is at next.
func Run(col []int32, i int) (a int32, n, next int) {
	a, n, next, _ = RunFill(col, i)
	return a, n, next
}

// RunFill decodes the request-column word at col[i] as Run does and
// reports whether it is a fill run, whose n cells take one value; any
// other word takes n values.
func RunFill(col []int32, i int) (a int32, n, next int, fill bool) {
	if a = col[i]; a >= 0 {
		return a, 1, i + 1, false
	}
	l := col[i+1]
	return a &^ math.MinInt32, int(l &^ math.MinInt32), i + 2, l < 0
}

// span is one processor's share of the lane's columns: the reads and
// writes up to r1 and w1, starting where the previous span ended (at 0
// for the first span). The columns hold nothing but the spans' requests,
// so the spans tile the columns exactly.
type span struct {
	proc, r1, w1 int32
}

// lane is a machine's request storage: the context c the bodies receive
// and its cursor, plus the barrier's index into the lane — a span per
// processor that recorded a request, in ascending processor order, and
// the phase's running maxima of local work (m_op) and requests (m_rw).
type lane[W, C any] struct {
	c        C
	cur      *cursor[W]
	spans    []span //repro:pooled
	mOp, mRW int64
}

// init points the lane's cursor at the one embedded in its context, and
// the cursor at st, the store its reads see (nil for a routing lane).
func (l *lane[W, C]) init(st *store[W]) {
	l.cur = any(&l.c).(interface{ base() *cursor[W] }).base()
	l.cur.m = st
}

// run executes the bodies of processors [0, n) on the lane's cursor and
// reports the phase's failure tally. Masked processors, processors that
// record nothing and processors that fail leave no trace in the lane.
// The span index is reserved at the dispatch width, which bounds how
// many processors can record, so it never grows while the bodies run.
// The columns are reserved at that width too, so a phase whose
// processors stage one request each never grows them: the read column
// only in a shared-memory lane (a Sends cursor has no store and never
// reads), and the write values except in a packed store, whose entries
// carry their bits.
func (l *lane[W, C]) run(core *Core, n int, body func(c *C)) (int32, error) {
	c := l.cur
	c.readAddrs, c.writes, c.writeVals, c.runs = c.readAddrs[:0], reserve(c.writes, n), c.writeVals[:0], false
	if c.m != nil {
		c.readAddrs = reserve(c.readAddrs, n)
	}
	if c.m == nil || c.m.shift == 0 {
		c.writeVals = reserve(c.writeVals, n)
	}
	// fail is cleared here and after each failure, not before every
	// body: a pointer store per processor takes a GC write barrier
	// whenever the collector is marking.
	c.fail = nil
	spans, mOp, mRW := reserve(l.spans, n), int64(0), int64(0)
	var nf int32
	var first error
	for i := range n {
		if core.CrashedProc(i) {
			// Masked processors idle: no body, no requests. The crash
			// flag is written at the previous phase's barrier.
			continue
		}
		r0, w0, v0 := len(c.readAddrs), len(c.writes), len(c.writeVals)
		c.proc, c.reads, c.wrs, c.ops = i, 0, 0, 0
		body(&l.c)
		if c.fail != nil {
			if first == nil {
				first = c.fail
			}
			nf++
			c.fail = nil
			// Drop what the failing body recorded, so the next span
			// still starts where the last one ended.
			c.readAddrs, c.writes, c.writeVals = c.readAddrs[:r0], c.writes[:w0], c.writeVals[:v0]
			continue
		}
		mOp, mRW = max(mOp, c.ops), max(mRW, c.reads, c.wrs)
		if r1, w1 := len(c.readAddrs), len(c.writes); r1 > r0 || w1 > w0 {
			spans = append(spans, span{int32(i), int32(r1), int32(w1)})
		}
	}
	l.spans, l.mOp, l.mRW = spans, mOp, mRW
	return nf, first //lint:colescape-ok first is the earliest processor failure, a fresh error from failf; it does not alias pooled storage
}

// reserve returns s emptied, with room for n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// mergeLane counts the lane's spans with g over the cells [0, cells)
// for p processors — its reads, then its writes — and returns the
// merge's statistics. It tries the ascending path when the lane staged a
// run, and runs the marks path when it did not or that path gave up;
// packed says the write column holds PackWrite entries.
func mergeLane[W, C any](g *MemMerger, l *lane[W, C], cells, p int, packed bool) MergeStats {
	for stream := l.cur.runs; ; stream = false {
		g.begin(0, cells, p, stream)
		countLane(g, l.spans, l.cur.readAddrs, false, false, l.cur.runs)
		countLane(g, l.spans, l.cur.writes, true, packed, l.cur.runs)
		if st, ok := g.end(); ok {
			return st
		}
	}
}

// countLane counts the lane's read spans (write false) or write spans
// (write true) over col, the lane's matching column; runs says whether
// the lane staged a run. On the marks path a lane without runs is walked
// span by span (MemMerger.walk); otherwise g gets the processors'
// columns in stack batches of colBatch.
func countLane(g *MemMerger, spans []span, col []int32, write, packed, runs bool) {
	if !g.stream && !runs {
		g.walk(spans, col, write, packed)
		return
	}
	var procs [colBatch]int32
	var cols [colBatch][]int32
	n, lo := 0, int32(0)
	for _, s := range spans {
		hi := s.r1
		if write {
			hi = s.w1
		}
		if lo == hi {
			continue
		}
		procs[n], cols[n], lo = s.proc, col[lo:hi], hi
		if n++; n == colBatch {
			g.cols(procs[:n], cols[:n], write, packed, runs)
			n = 0
		}
	}
	g.cols(procs[:n], cols[:n], write, packed, runs)
}

// colViews returns the p-long column-of-columns header an attached
// Backend receives, reusing buf: entry i is processor i's read (or, with
// write, write) column, runs and all, borrowed from the lane, and nil
// for a processor that recorded nothing.
func colViews[W, C any](buf [][]int32, p int, l *lane[W, C], write bool) [][]int32 {
	if cap(buf) < p {
		buf = make([][]int32, p)
	}
	buf = buf[:p]
	clear(buf)
	col := l.cur.readAddrs
	if write {
		col = l.cur.writes
	}
	lo := int32(0)
	for _, s := range l.spans {
		hi := s.r1
		if write {
			hi = s.w1
		}
		buf[s.proc], lo = col[lo:hi], hi
	}
	return buf
}
