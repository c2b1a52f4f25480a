package engine

import "math"

// Request lanes: the per-chunk request storage of every engine (Mem,
// BitMem and Route alike).
//
// A phase dispatches its processors over contiguous chunks, and each
// chunk owns one lane: a processor context whose cursor serves the
// chunk's processors one after another, and the columns they append to
// in turn (reads, and writes or sends with their values). Lanes are
// created per chunk, not per processor, and reused across phases, so a
// phase costs O(processors dispatched) plus O(requests); a processor
// that records nothing leaves nothing behind. Chunks ascend with the
// processor range, so reading the lanes in order reads the requests in
// ascending processor order.

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

// span is one processor's share of its lane's columns: the reads and
// writes up to r1 and w1, starting where the previous span ended (at 0
// for the lane's first span). The columns hold nothing but the spans'
// requests, so a lane's spans tile its columns exactly.
type span struct {
	proc, r1, w1 int32
}

// lane is one dispatch chunk's request storage: the context c the
// chunk's bodies receive and its cursor, plus the barrier's index into
// the lane — a span per processor that recorded a request, in ascending
// processor order, and the chunk's running maxima of local work (m_op)
// and requests (m_rw).
type lane[W, C any] struct {
	c        C
	cur      *cursor[W]
	spans    []span //repro:pooled
	mOp, mRW int64
}

// useLanes returns lanes resliced to the phase's nb chunks, reusing the
// lanes kept past its length and creating missing ones, whose cursors
// read st.
func useLanes[W, C any](lanes []*lane[W, C], nb int, st *store[W]) []*lane[W, C] {
	if cap(lanes) < nb {
		grown := make([]*lane[W, C], nb)
		copy(grown, lanes[:cap(lanes)])
		lanes = grown
	}
	lanes = lanes[:nb]
	for k, l := range lanes {
		if l == nil {
			l = new(lane[W, C])
			l.cur = any(&l.c).(interface{ base() *cursor[W] }).base()
			l.cur.m = st
			lanes[k] = l
		}
	}
	return lanes
}

// run executes the bodies of processors [lo, hi) on the lane's cursor and
// reports the chunk's failure tally. Masked processors, processors that
// record nothing and processors that fail leave no trace in the lane. The
// span index is reserved at the dispatch width, which bounds how many
// processors can record, so it never grows while the bodies run.
func (l *lane[W, C]) run(core *Core, lo, hi int, body func(c *C)) (int32, error) {
	c := l.cur
	c.readAddrs, c.writes, c.writeVals, c.runs = c.readAddrs[:0], c.writes[:0], c.writeVals[:0], false
	// fail is cleared here and after each failure, not before every
	// body: a pointer store per processor takes a GC write barrier
	// whenever the collector is marking.
	c.fail = nil
	if cap(l.spans) < hi-lo {
		l.spans = make([]span, 0, hi-lo)
	}
	spans, mOp, mRW := l.spans[:0], int64(0), int64(0)
	var nf int32
	var first error
	for i := lo; i < hi; i++ {
		if core.CrashedProc(i) {
			// Masked processors idle: no body, no requests. The crash
			// flag is written at the previous phase's barrier, so
			// masking is visible here race-free.
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

// mergeLanes counts the lanes' spans with g over the cells [0, cells)
// for p processors — every lane's reads, then every lane's writes, in
// lane order — and returns the merge's statistics. It tries the
// ascending path when a lane staged a run, and runs the marks path when
// none did or that path gave up; packed says the write columns hold
// PackWrite entries.
func mergeLanes[W, C any](g *MemMerger, lanes []*lane[W, C], cells, p int, packed bool) MergeStats {
	stream := false
	for _, l := range lanes {
		stream = stream || l.cur.runs
	}
	for ; ; stream = false {
		g.begin(0, cells, p, stream)
		for _, l := range lanes {
			countLane(g, l.spans, l.cur.readAddrs, false, false, l.cur.runs)
		}
		for _, l := range lanes {
			countLane(g, l.spans, l.cur.writes, true, packed, l.cur.runs)
		}
		if st, ok := g.end(); ok {
			return st
		}
	}
}

// countLane counts one lane's read spans (write false) or write spans
// (write true) over col, the lane's matching column, handing g the
// processors' columns in stack batches of colBatch; runs says whether
// the lane staged a run.
func countLane(g *MemMerger, spans []span, col []int32, write, packed, runs bool) {
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
// write, write) column, runs and all, borrowed from its lane, and nil for
// a processor that recorded nothing.
func colViews[W, C any](buf [][]int32, p int, lanes []*lane[W, C], write bool) [][]int32 {
	if cap(buf) < p {
		buf = make([][]int32, p)
	}
	buf = buf[:p]
	clear(buf)
	for _, l := range lanes {
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
	}
	return buf
}
