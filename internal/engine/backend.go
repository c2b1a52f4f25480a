package engine

import (
	"errors"
	"fmt"
	"math"
)

// This file is the commit-barrier backend seam. Every engine commits
// through the one barrier (Core.commit in engine.go), whose merge — the
// engines' gather — by default ("inproc") counts with MemMerger /
// RouteMerger below.
// A Backend replaces only the *measurement* half of it: counting
// per-cell contention, detecting read+write violations and measuring the
// h-relation over the request columns. Everything value-carrying stays
// on the coordinating process — write payloads, inbox contents, observer
// emission, cost charging and checkpoint/rollback — because the engines
// are generic over payload types the transport cannot serialize.
//
// That split is what makes a distributed backend possible without
// touching the determinism contract: the merge statistics are a pure
// function of the (addr, proc) request columns, the columns are built in
// ascending processor order on the coordinator, and the backend's answer
// is compared against nothing — it IS the answer, so a backend that
// implements the reference rules (see MemMerger / RouteMerger) produces
// byte-identical event streams, cost reports and memory images to the
// in-proc path at every Workers setting and every worker-process count.
//
// Transport failures are recovery-schedulable, not fatal: a failed merge
// surfaces as PhaseRetry through the machine's RetryPolicy — charging the
// same model-time backoff stall an injected transient fault charges —
// unless the backend declares the error permanent (TransportError with
// Permanent set), which poisons the machine diagnosably.

// MemMergeReq is one shared-memory barrier merge: the per-processor
// request columns of the phase attempt, borrowed from the engine's
// request lanes (valid only for the duration of the MergeMem call).
type MemMergeReq struct {
	// Phase is the zero-based index the phase would commit as; Attempt
	// the 1-based attempt counter. Both are diagnostic — the merge result
	// must not depend on them.
	Phase, Attempt int
	// Cells is the current shared-memory size (bits for packed columns).
	Cells int
	// Packed marks bit-engine write columns of PackWrite entries, whose
	// cells EntryAddr recovers. Read columns hold cells either way.
	Packed bool
	// Reads and Writes hold one request column per processor, index =
	// processor id: plain cells and runs (see Run), or in a packed write
	// column plain PackWrite entries. Crashed (masked) processors
	// contribute empty columns.
	Reads, Writes [][]int32
}

// MergeStats is the shared-memory merge answer: the paper's per-cell
// contention maxima (processors per cell, deduplicated per processor) and
// the smallest cell that was both read and written this phase (−1 =
// none). MaxOps/MaxRW stay coordinator-side — they never leave the phase
// contexts.
type MergeStats struct {
	KRead, KWrite int64
	// Viol is the smallest violating cell address, −1 for a clean phase.
	Viol int32
}

// RouteMergeReq is one message-routing barrier merge: the per-sender
// destination columns of the superstep attempt (message payloads stay on
// the coordinator).
type RouteMergeReq struct {
	// Phase and Attempt are diagnostic, as in MemMergeReq.
	Phase, Attempt int
	// P is the component count; destinations are in [0, P).
	P int
	// Dsts holds one destination column per sender, index = component id,
	// of plain destinations: send columns never hold runs.
	Dsts [][]int32
}

// RouteStats is the routing merge answer: the receive side of the
// h-relation (max fan-in over destination components). The send side is
// the column lengths, which the coordinator already has.
type RouteStats struct {
	HRecv int64
}

// Backend computes the commit-barrier merge statistics for a machine. A
// nil backend selects the built-in in-proc merge. Implementations
// must be deterministic functions of the request columns (the reference
// rules are MemMerger/RouteMerger); they may fail with transport errors,
// which the engine converts into retry-or-poison per TransportError.
// MergeMem/MergeRoute are called from the coordinating goroutine only.
type Backend interface {
	// Name identifies the backend in reports and diagnostics.
	Name() string
	// MergeMem answers one shared-memory merge request.
	MergeMem(req MemMergeReq) (MergeStats, error)
	// MergeRoute answers one message-routing merge request.
	MergeRoute(req RouteMergeReq) (RouteStats, error)
	// Close releases backend resources (worker processes, sockets). It
	// must be idempotent; after Close every merge fails permanently.
	Close() error
}

// FaultRealizer is an optional Backend extension: backends with physical
// failure modes (worker processes, message frames) implement it to mirror
// injected verdicts as real faults — a crash verdict kills a worker
// process, a message-channel verdict drops or duplicates a transport
// frame. The engine calls Realize on the coordinating goroutine right
// after the injector fires and before the verdict is acted on; the
// physical effect then surfaces (if at all) as a transport error on a
// later merge, which recovers through the same retry machinery. Realize
// must not change the model-level verdict semantics.
type FaultRealizer interface {
	Realize(ic InjectCtx, v Verdict)
}

// TransportError is how a Backend reports a failed merge. Permanent
// errors poison the machine (diagnosably); transient ones schedule a
// phase retry under the machine's RetryPolicy, charging the same
// model-time backoff stall as an injected transient fault.
type TransportError struct {
	// Backend is the reporting backend's Name.
	Backend string
	// Rank is the failing worker rank, −1 when not rank-specific.
	Rank int
	// Permanent marks errors retry cannot help (backend closed, worker
	// respawn budget exhausted, handshake failure).
	Permanent bool
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	kind := "transient"
	if e.Permanent {
		kind = "permanent"
	}
	if e.Rank >= 0 {
		return fmt.Sprintf("%s backend: worker %d: %s transport fault: %v", e.Backend, e.Rank, kind, e.Err)
	}
	return fmt.Sprintf("%s backend: %s transport fault: %v", e.Backend, kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *TransportError) Unwrap() error { return e.Err }

// SetBackend attaches a commit-barrier backend to the machine; call
// before the first phase (nil restores the built-in in-proc merge). The
// machine does not own the backend: callers close it after the run.
func (c *Core) SetBackend(b Backend) { c.backend = b } //lint:barrier-ok pre-run configuration, like InjectFaults: set once before the first phase, never during a barrier

// transportStatus converts a failed backend merge into a phase status:
// permanent transport faults poison the machine diagnosably; transient
// ones become PhaseRetry, recovering through the same RetryPolicy (and
// charging the same model-time backoff stall) as injected transient
// faults. Nothing was charged or applied when the merge failed, so no
// rollback is needed — the retried attempt re-runs the bodies against
// unchanged start-of-phase state.
func (c *Core) transportStatus(err error) PhaseStatus {
	var te *TransportError
	if errors.As(err, &te) && te.Permanent {
		c.RecordErr(fmt.Errorf("phase %d: %w", c.curPhase, err))
		return PhaseAborted
	}
	c.fstats.Transport++
	c.lastFault = err //lint:barrier-ok transport-retry bookkeeping inside the commit barrier: transportStatus is called only from Core.commit, mirroring consultInjector
	return PhaseRetry
}

// colBatch is how many column headers the column barrier hands a merger
// per call: enough to amortise the call, small enough to live on the
// stack.
const colBatch = 64

// MemMerger is the shared-memory contention rule set — the one
// implementation of it in the engine: the per-cell processor counts and
// the read+write clash check, applied serially over one contiguous cell
// range [lo, hi). The column barrier (no backend) feeds it the active
// processors' own columns; backend workers run it over their owned range
// via Merge.
//
// Rules (paper §2): contention counts *processors* per cell — duplicate
// requests by one processor dedupe; all reads are counted before all
// writes, so a write at a read cell is the forbidden read+write mix, and
// the smallest such cell is reported.
//
// A merge is begin, then cols over every processor's read column, then
// cols over every processor's write column, then end. Columns come in
// ascending processor order, in as many cols calls as the caller likes.
// A merge takes one of two paths, chosen at begin.
//
// The marks path keeps one ticketed mark per cell, reused across
// merges. A merge over p processors owns the 2p tickets above base:
// processor pr reads under ticket base+1+pr and writes under
// base+1+p+pr, and the next merge's base is past them all. A mark holds
// the last ticket that counted the cell and how many processors it has
// counted; a ticket ≤ base is stale, so a merge neither lists nor clears
// the cells it counted, and a steady-state merge allocates nothing. The
// marks are cleared only when the tickets would wrap, and grow only when
// this path runs.
//
// The ascending path (see ascend) keeps no per-cell state: it reads the
// answer off the column words while each word starts at or after the
// last cell the previous one counted, and gives up on the first word
// that does not, or on a read+write clash. The caller then runs the
// merge again on the marks path, so Viol always comes from the marks.
type MemMerger struct {
	marks []cellMark
	// base is the marks path's stale bound and p its processor count:
	// reads take the tickets up to base+p, writes the p above them.
	base, p uint32
	lo, hi  int32
	st      MergeStats

	// stream selects the ascending path for this merge, and broke
	// records that it gave up. side holds the read walk's position
	// (side[0]) and the write walk's (side[1]); readIvs are the read
	// walk's coalesced cell intervals, and next is the first of them the
	// write walk has not passed.
	stream, broke bool
	side          [2]walkPos
	readIvs       []cellRange
	next          int
}

// walkPos is an ascending walk's position: last is the last cell
// counted (−1 before the first), proc the processor that counted it
// last and k how many processors have.
type walkPos struct {
	last, proc int
	k          int64
}

// cellRange is the cells [s, e).
type cellRange struct{ s, e int }

// cellMark is one cell's merge scratch: t is the ticket of the last
// processor counted there, and count how many readers (read ticket) or
// writers (write ticket) have counted so far. A mark whose ticket is
// ≤ the merger's base is untouched this merge.
type cellMark struct {
	t     uint32
	count int32
}

// Merge computes the merge statistics for the cells in [lo, hi);
// requests outside the range are ignored (the caller shards the columns
// or passes the full space). A request with a run tries the ascending
// path first.
func (g *MemMerger) Merge(req MemMergeReq, lo, hi int) MergeStats {
	p := max(len(req.Reads), len(req.Writes))
	rr, wr := hasRuns(req.Reads), hasRuns(req.Writes)
	for stream := rr || wr; ; stream = false {
		g.begin(lo, hi, p, stream)
		g.cols(nil, req.Reads, false, false, rr)
		g.cols(nil, req.Writes, true, req.Packed, wr)
		if st, ok := g.end(); ok {
			return st
		}
	}
}

// begin starts a merge over the cells in [lo, hi) for processors
// [0, p), on the ascending path when stream is set. The marks path grows
// the marks to the high-water width and advances base past the previous
// marks merge's tickets, clearing the marks first when this merge's
// would pass 2^32−1.
func (g *MemMerger) begin(lo, hi, p int, stream bool) {
	width := max(hi-lo, 0)
	g.lo, g.hi = int32(lo), int32(lo+width)
	g.st = MergeStats{Viol: -1}
	g.stream, g.broke = stream, false
	if stream {
		g.side = [2]walkPos{{last: -1}, {last: -1}}
		g.readIvs, g.next = g.readIvs[:0], 0
		return
	}
	if len(g.marks) < width {
		// Doubling keeps a machine that grows its memory every level
		// from reallocating the marks at every level.
		g.marks = make([]cellMark, max(width, 2*len(g.marks)))
	}
	base := uint64(g.base) + 2*uint64(g.p) + 1
	if base+2*uint64(p)+1 > math.MaxUint32 {
		clear(g.marks)
		base = 0
	}
	g.base, g.p = uint32(base), uint32(p)
}

// ascend counts read columns (write false) or write columns on the
// ascending path, indexed like reads. Each word stands for its cells
// clipped to [lo, hi) (a packed entry for one cell, through EntryAddr);
// a word that clips to nothing is skipped. While every word starts at or
// after the last cell the walk counted, a cell is touched by one word,
// or by a word that ends on it followed by words that start on it, and
// since processors come in ascending order a processor repeats only
// straight after itself. So one running count is exact: it restarts at
// one on a word past the last cell and grows by one on a word that
// starts on it from a different processor. The read walk joins its words
// into ascending, disjoint intervals, and the write walk, whose words
// ascend too, meets them in a merge-join; a write word that overlaps one
// is a clash. A descent or a clash sets broke, and the walk stops.
func (g *MemMerger) ascend(procs []int32, cols [][]int32, write, packed bool) {
	if g.broke {
		return
	}
	lo, hi := int(g.lo), int(g.hi)
	pos := &g.side[0]
	km := g.st.KRead
	if write {
		pos, km = &g.side[1], g.st.KWrite
	}
	last, lp, k := pos.last, pos.proc, pos.k
	ivs, next := g.readIvs, g.next
	for c, col := range cols {
		pr := c
		if procs != nil {
			pr = int(procs[c])
		}
		for i := 0; i < len(col); {
			a, n := col[i], 1
			if packed {
				a, i = EntryAddr(a, true), i+1
			} else {
				a, n, i = Run(col, i)
			}
			s, e := max(int(a), lo), min(int(a)+n, hi)
			if s >= e {
				continue
			}
			switch {
			case s > last:
				k = 1
			case s < last:
				// Give up, but keep the grown scratch: without the store
				// back, a phase that is not ascending regrows it every time.
				g.broke, g.readIvs = true, ivs
				return
			case pr != lp:
				k++
			}
			km = max(km, k)
			if !write {
				if j := len(ivs) - 1; j >= 0 && s <= ivs[j].e {
					ivs[j].e = e
				} else {
					ivs = append(ivs, cellRange{s, e})
				}
			} else {
				for next < len(ivs) && ivs[next].e <= s {
					next++
				}
				if next < len(ivs) && ivs[next].s < e {
					g.broke, g.readIvs = true, ivs
					return
				}
			}
			if e-1 > s {
				k = 1
			}
			last, lp = e-1, pr
		}
	}
	*pos = walkPos{last, lp, k}
	g.readIvs, g.next = ivs, next
	if write {
		g.st.KWrite = km
	} else {
		g.st.KRead = km
	}
}

// reads counts read columns of plain cells: cols[k] belongs to
// processor procs[k], or to processor k when procs is nil.
func (g *MemMerger) reads(procs []int32, cols [][]int32) {
	lo, hi := g.lo, g.hi
	marks, base := g.marks, g.base
	kr := g.st.KRead
	for k, col := range cols {
		pr := int32(k)
		if procs != nil {
			pr = procs[k]
		}
		t := base + 1 + uint32(pr)
		for _, a := range col {
			if a < lo || a >= hi {
				continue
			}
			m := &marks[a-lo]
			switch {
			case m.t <= base:
				*m = cellMark{t: t, count: 1}
				kr = max(kr, 1)
			case m.t != t:
				m.t = t
				m.count++
				kr = max(kr, int64(m.count))
			}
		}
	}
	g.st.KRead = kr
}

// writes counts write columns without runs, indexed like reads; packed
// columns hold PackWrite entries. A write that finds a read ticket at
// its cell is a violation.
func (g *MemMerger) writes(procs []int32, cols [][]int32, packed bool) {
	lo, hi := g.lo, g.hi
	marks, base, wbase := g.marks, g.base, g.base+g.p
	kw, viol := g.st.KWrite, g.st.Viol
	for k, col := range cols {
		pr := int32(k)
		if procs != nil {
			pr = procs[k]
		}
		t := wbase + 1 + uint32(pr)
		for _, e := range col {
			a := EntryAddr(e, packed)
			if a < lo || a >= hi {
				continue
			}
			m := &marks[a-lo]
			switch {
			case m.t <= base:
				*m = cellMark{t: t, count: 1}
				kw = max(kw, 1)
			case m.t <= wbase:
				if viol < 0 || a < viol {
					viol = a
				}
			case m.t != t:
				m.t = t
				m.count++
				kw = max(kw, int64(m.count))
			}
		}
	}
	g.st.KWrite, g.st.Viol = kw, viol
}

// runCols counts read columns (write false) or write columns that may
// hold runs, indexed like reads, each word through countRun: reads
// under the tickets above base, writes under those above base+p, where a
// read ticket is the clash.
func (g *MemMerger) runCols(procs []int32, cols [][]int32, write bool) {
	clash := g.base
	if write {
		clash += g.p
	}
	for k, col := range cols {
		pr := int32(k)
		if procs != nil {
			pr = procs[k]
		}
		t := clash + 1 + uint32(pr)
		for i := 0; i < len(col); {
			a, n, next := Run(col, i)
			c, viol := g.countRun(a, int32(n), t, clash)
			if !write {
				g.st.KRead = max(g.st.KRead, c)
			} else if g.st.KWrite = max(g.st.KWrite, c); viol >= 0 && (g.st.Viol < 0 || viol < g.st.Viol) {
				g.st.Viol = viol
			}
			i = next
		}
	}
}

// countRun counts ticket t at the cells of the run [a, a+n) that lie in
// the merge's range, over the sub-slice of marks they cover: a mark
// whose ticket is ≤ base starts over at one, one in (base, clash] is a
// read ticket that a write finds (reads pass clash = base, so none is),
// and any other ticket but t adds one. It returns the largest count it
// leaves and the first clashing cell (−1 for none).
func (g *MemMerger) countRun(a, n int32, t, clash uint32) (int64, int32) {
	s, e := max(int(a), int(g.lo)), min(int(a)+int(n), int(g.hi))
	k, viol := int64(0), int32(-1)
	if s >= e {
		return k, viol
	}
	marks, base := g.marks[s-int(g.lo):e-int(g.lo)], g.base
	for j := range marks {
		m := &marks[j]
		switch {
		case m.t <= base:
			*m = cellMark{t: t, count: 1}
			k = max(k, 1)
		case m.t <= clash:
			if viol < 0 {
				viol = int32(s + j)
			}
		case m.t != t:
			m.t = t
			m.count++
			k = max(k, int64(m.count))
		}
	}
	return k, viol
}

// cols counts read columns, or write columns when write is set, on the
// merge's path. On the marks path runs says whether they may hold runs,
// which only runCols walks, so columns of plain words keep the tight
// loops. Packed columns never hold runs.
func (g *MemMerger) cols(procs []int32, cols [][]int32, write, packed, runs bool) {
	switch {
	case g.stream:
		g.ascend(procs, cols, write, packed)
	case runs && !packed:
		g.runCols(procs, cols, write)
	case write:
		g.writes(procs, cols, packed)
	default:
		g.reads(procs, cols)
	}
}

// hasRuns reports whether any of the columns holds a run word.
func hasRuns(cols [][]int32) bool {
	for _, col := range cols {
		for _, w := range col {
			if w < 0 {
				return true
			}
		}
	}
	return false
}

// end finishes the merge and returns its statistics, and whether the
// merge answered: the ascending path does not when it gave up, and the
// caller runs the merge again on the marks path. The scratch needs no
// clearing, since the next begin's base retires every ticket.
func (g *MemMerger) end() (MergeStats, bool) { return g.st, !g.broke }

// RouteMerger is the routing rule set: per-destination fan-in counting
// (messages per destination) over one contiguous component range
// [lo, hi). The column barrier (no backend) feeds it the senders' own
// destination columns; backend workers run it via Merge.
// The scratch is one epoch-stamped count per destination, reused across
// merges without clearing: begin advances the epoch, and a count
// stamped with an older epoch reads as zero. A merge is begin, dsts over
// every sender's column (in as many calls as the caller likes), then end.
type RouteMerger struct {
	recv   []dstMark
	epoch  uint32
	lo, hi int32
	hrecv  int64
}

// dstMark is one destination's fan-in so far, valid only while epoch
// equals the merger's.
type dstMark struct {
	epoch uint32
	n     int32
}

// Merge returns the maximum fan-in over destinations in [lo, hi);
// destinations outside the range are ignored.
func (g *RouteMerger) Merge(req RouteMergeReq, lo, hi int) RouteStats {
	g.begin(lo, hi)
	g.dsts(req.Dsts)
	return g.end()
}

// begin starts a merge over the destinations in [lo, hi).
func (g *RouteMerger) begin(lo, hi int) {
	width := max(hi-lo, 0)
	if len(g.recv) < width {
		g.recv = make([]dstMark, width)
	}
	if g.epoch++; g.epoch == 0 {
		clear(g.recv) // the epoch wrapped: retire every count, restart at 1
		g.epoch = 1
	}
	g.lo, g.hi = int32(lo), int32(lo+width)
	g.hrecv = 0
}

// dsts counts destination columns.
func (g *RouteMerger) dsts(cols [][]int32) {
	lo, hi := g.lo, g.hi
	recv, ep := g.recv, g.epoch
	hr := g.hrecv
	for _, col := range cols {
		for _, d := range col {
			if d < lo || d >= hi {
				continue
			}
			m := &recv[d-lo]
			if m.epoch != ep {
				*m = dstMark{epoch: ep}
			}
			m.n++
			hr = max(hr, int64(m.n))
		}
	}
	g.hrecv = hr
}

// end finishes the merge and returns the maximum fan-in.
func (g *RouteMerger) end() RouteStats { return RouteStats{HRecv: g.hrecv} }
