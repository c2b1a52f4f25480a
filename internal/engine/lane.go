package engine

// Request lanes of the shared-memory engines (Mem and BitMem).
//
// A phase dispatches its processors over contiguous chunks, and each
// chunk owns one lane: a cursor context that serves the chunk's
// processors one after another, the read, write and value columns they
// append to in turn, and a laneLog. Lanes are created per chunk, not per
// processor, and reused across phases, so a phase costs O(processors
// dispatched) plus O(requests); a processor that records nothing leaves
// nothing behind. Chunks ascend with the processor range, so reading the
// lanes in order reads the requests in ascending processor order.

// span is one processor's share of its lane's columns: reads [r0, r1)
// and writes [w0, w1).
type span struct {
	proc, r0, r1, w0, w1 int32
}

// laneLog is the barrier's index into one lane: a span per processor
// that recorded a request, in ascending processor order, and the chunk's
// running maxima of local work (m_op) and requests (m_rw).
type laneLog struct {
	spans    []span
	mOp, mRW int64
}

// reset empties the log at the start of a chunk.
func (l *laneLog) reset() {
	l.spans = l.spans[:0]
	l.mOp, l.mRW = 0, 0
}

// note records one processor's charges and, if it recorded any request,
// its span of the lane's columns.
func (l *laneLog) note(proc int, ops, rw int64, r0, r1, w0, w1 int) {
	l.mOp, l.mRW = max(l.mOp, ops), max(l.mRW, rw)
	if r1 > r0 || w1 > w0 {
		l.spans = append(l.spans, span{int32(proc), int32(r0), int32(r1), int32(w0), int32(w1)})
	}
}

// useLanes returns lanes resliced to the phase's nb chunks, reusing the
// lanes kept past its length and creating missing ones with newLane.
func useLanes[L any](lanes []*L, nb int, newLane func() *L) []*L {
	if cap(lanes) < nb {
		grown := make([]*L, nb)
		copy(grown, lanes[:cap(lanes)])
		lanes = grown
	}
	lanes = lanes[:nb]
	for k, l := range lanes {
		if l == nil {
			lanes[k] = newLane()
		}
	}
	return lanes
}

// countLane counts one lane's read spans (write false) or write spans
// (write true) over col, the lane's matching column, handing g the
// processors' columns in stack batches of colBatch. The barrier counts
// every lane's reads before any lane's writes, in lane order.
func countLane(g *MemMerger, spans []span, col []int32, write, packed bool) {
	var procs [colBatch]int32
	var cols [colBatch][]int32
	n := 0
	for _, s := range spans {
		lo, hi := s.r0, s.r1
		if write {
			lo, hi = s.w0, s.w1
		}
		if lo == hi {
			continue
		}
		procs[n], cols[n] = s.proc, col[lo:hi]
		if n++; n == colBatch {
			g.cols(procs[:n], cols[:n], write, packed)
			n = 0
		}
	}
	g.cols(procs[:n], cols[:n], write, packed)
}

// backendViews returns the p-long column-of-columns headers an attached
// Backend receives, reusing the given scratch, with every column nil;
// the barrier then points each active processor's entry at its span.
func backendViews(reads, writes [][]int32, p int) ([][]int32, [][]int32) {
	if cap(reads) < p {
		reads, writes = make([][]int32, p), make([][]int32, p) //lint:hotpathalloc-ok amortized scratch growth, once per machine; only an attached backend needs the p-long headers
	}
	reads, writes = reads[:p], writes[:p]
	clear(reads)
	clear(writes)
	return reads, writes
}
