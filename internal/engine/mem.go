package engine

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sched"
)

// MemModel is the adapter contract of a shared-memory machine (the QSM
// family and the GSM), generic over the write payload V (int64 words for
// the QSM, information sets for the GSM). It supplies the model's naming,
// cost rule and — through Apply — its write-commit semantics
// (last-writer-wins vs. info-merge).
type MemModel[V any] interface {
	Model
	// Prefix is the package error prefix ("qsm", "gsm").
	Prefix() string
	// Violation is the package's sentinel error wrapping memory-access-rule
	// violations.
	Violation() error
	// Grain is the minimum processors-per-chunk before a phase spawns
	// worker goroutines; values ≤ 1 always use the full worker budget.
	// The GSM's proof-machinery enumerations run thousands of tiny-p
	// machines and use a grain to stay on the inline fast path.
	Grain() int
	// Apply commits a run of writes to memory, in issue order. The
	// barrier hands it each dispatch chunk's write columns, which hold the
	// chunk's processors in ascending order, and the chunks in ascending
	// order, so a last-writer-wins Apply deterministically commits the
	// final write of the highest-numbered processor; a merging Apply is
	// order-insensitive.
	Apply(mem []V, addrs []int32, vals []V)
	// Render formats a cell/payload value for observer events.
	Render(v V) string
}

// Mem is the shared-memory phase engine. Machine adapters embed it and
// gain the full phase lifecycle: Phase/ForAll dispatch, the column
// commit barrier with contention accounting and violation detection,
// deterministic write application via the model's Apply, and observer
// emission.
type Mem[V any] struct {
	Core
	model MemModel[V]
	mem   []V

	// lanes holds one request lane per dispatch chunk of the current
	// phase (len) and keeps the lanes of wider phases past it (cap), so
	// a lane's columns keep their capacity across phases. A phase costs
	// O(processors dispatched) plus O(requests), whatever p is.
	lanes []*memLane[V]
	// ckMem is the memory snapshot of the last Checkpoint (reused across
	// phases). A shallow element copy suffices: the engine's Apply
	// contract replaces cell values rather than mutating them in place
	// (last-writer-wins stores, GSM's copy-on-write Merge).
	ckMem []V
	// Column-barrier scratch (see commit): merger counts the lanes'
	// columns in process, and bkReads/bkWrites are the p-long column
	// views handed to a commit backend (one borrowed slice per
	// processor, nil for a processor that recorded nothing).
	merger            MemMerger
	bkReads, bkWrites [][]int32
}

// memLane is one dispatch chunk's request storage. Its cursor context
// serves every processor of the chunk in turn: they append to the
// cursor's columns one after another, and the lane's log keeps one span
// per processor that recorded a request, plus the chunk's maxima.
type memLane[V any] struct {
	c MemCtx[V]
	laneLog
}

// InitMem prepares the engine for a machine with the given model,
// parameters, input size, worker budget and initial (zero-valued) memory
// size.
func (m *Mem[V]) InitMem(model MemModel[V], params cost.Params, n, workers, cells int) {
	m.Core.Init(model, params, n, workers)
	m.model = model
	m.mem = make([]V, cells)
}

// Data returns the live memory slice for adapter-side access (input
// loading, host-side peeks, trace snapshots). Grow invalidates it.
func (m *Mem[V]) Data() []V { return m.mem } //lint:colescape-ok documented borrow point: the live cell image; callers are policed at their use sites

// MemSize returns the current shared-memory size in cells.
func (m *Mem[V]) MemSize() int { return len(m.mem) }

// Grow extends the shared memory to at least size cells (zero valued).
// Growing memory is free in the models: it allocates address space, not
// work. Capacity grows geometrically, so an algorithm that grows its
// memory every level copies each cell O(1) times amortised. Slices
// previously returned by Data are invalidated. Growing past the int32
// address space poisons the machine and leaves the memory as it is.
func (m *Mem[V]) Grow(size int) {
	old := len(m.mem)
	if size <= old {
		return
	}
	if size > maxAddr {
		m.RecordErr(fmt.Errorf("%s: memory of %d cells exceeds the %d-cell address space",
			m.model.Prefix(), size, maxAddr))
		return
	}
	if size > cap(m.mem) {
		grown := make([]V, size, max(size, 2*cap(m.mem)))
		copy(grown, m.mem)
		m.mem = grown
		return
	}
	m.mem = m.mem[:size]
	clear(m.mem[old:])
}

// MemCtx is the processor handle available inside a phase. It is a
// cursor: the engine points it at one processor at a time, so it is
// valid only during that processor's body call and must not be retained
// or shared across processors.
type MemCtx[V any] struct {
	proc  int
	m     *Mem[V]
	reads int64
	wrs   int64
	ops   int64

	readAddrs  []int32
	writeAddrs []int32
	writeVals  []V
	fail       error
}

// Proc returns this processor's index in [0, P).
func (c *MemCtx[V]) Proc() int { return c.proc }

// Read returns the contents of the cell as of the start of the phase and
// charges one shared-memory read.
//
// Model discipline: the value of a read may be used only in a subsequent
// phase. The simulator returns the start-of-phase snapshot, so using the
// value immediately is observationally identical to buffering it;
// however, algorithms must not let one read's value choose another
// address read in the same phase (requests must be a function of
// start-of-phase state).
func (c *MemCtx[V]) Read(addr int) V {
	if addr < 0 || addr >= len(c.m.mem) {
		c.failf("read out of range: cell %d of %d", addr, len(c.m.mem))
		var zero V
		return zero
	}
	c.reads++
	c.readAddrs = append(c.readAddrs, int32(addr))
	return c.m.mem[addr] //lint:colescape-ok single-cell read: engine instantiations use scalar V, so the cell is returned by value
}

// Write queues a write of val to the cell, committing at the phase
// barrier under the model's Apply semantics, and charges one write.
func (c *MemCtx[V]) Write(addr int, val V) {
	if addr < 0 || addr >= len(c.m.mem) {
		c.failf("write out of range: cell %d of %d", addr, len(c.m.mem))
		return
	}
	c.wrs++
	c.writeAddrs = append(c.writeAddrs, int32(addr))
	c.writeVals = append(c.writeVals, val)
}

// Op charges k units of local computation (free under cost rules that
// ignore m_op, such as the GSM's).
func (c *MemCtx[V]) Op(k int) {
	if k > 0 {
		c.ops += int64(k)
	}
}

func (c *MemCtx[V]) failf(format string, args ...any) {
	if c.fail == nil {
		c.fail = fmt.Errorf("%s: proc %d: "+format, //lint:hotpathalloc-ok abort path: formats once, then the context is poisoned
			append([]any{c.m.model.Prefix(), c.proc}, args...)...)
	}
}

// begin points the cursor at processor proc: its charges and failure
// start from zero, and its requests append to the lane's columns.
func (c *MemCtx[V]) begin(proc int) {
	c.proc = proc
	c.reads, c.wrs, c.ops = 0, 0, 0
	c.fail = nil
}

// clearCols empties the lane's columns at the start of a chunk.
func (c *MemCtx[V]) clearCols() {
	c.readAddrs = c.readAddrs[:0]
	c.writeAddrs = c.writeAddrs[:0]
	c.writeVals = c.writeVals[:0]
}

// run executes the bodies of processors [lo, hi) on the lane's cursor and
// reports the chunk's failure tally. Masked processors and processors
// that record nothing leave no trace in the lane.
func (l *memLane[V]) run(lo, hi int, body func(c *MemCtx[V])) (int32, error) {
	c := &l.c
	c.clearCols()
	l.reset()
	var nf int32
	var first error
	for i := lo; i < hi; i++ {
		if c.m.CrashedProc(i) {
			// Masked processors idle: no body, no requests. The crash
			// flag is written at the previous phase's barrier, so
			// masking is visible here race-free.
			continue
		}
		r0, w0 := len(c.readAddrs), len(c.writeAddrs)
		c.begin(i)
		body(c)
		if c.fail != nil {
			if first == nil {
				first = c.fail
			}
			nf++
			continue
		}
		l.note(i, c.ops, max(c.reads, c.wrs), r0, len(c.readAddrs), w0, len(c.writeAddrs))
	}
	return nf, first //lint:colescape-ok first is the earliest processor failure, a fresh error from failf; it does not alias pooled storage
}

// phaseWorkers returns the effective worker count for a phase that
// dispatches n processors, under the model's grain.
func (m *Mem[V]) phaseWorkers(n int) int {
	g := m.model.Grain()
	if g <= 1 {
		return m.Workers()
	}
	return min(m.Workers(), (n+g-1)/g)
}

// Phase runs one bulk-synchronous phase: body is invoked once per
// processor (concurrently over contiguous chunks), requests are merged at
// the barrier (see commit), the phase is charged under
// the model's cost rule, and writes commit. Phase is a no-op once the
// machine has erred.
func (m *Mem[V]) Phase(body func(c *MemCtx[V])) { m.ForAll(m.P(), body) }

// ForAll runs a phase in which only processors with index < active
// participate: processors ≥ active are not dispatched at all, so the
// phase costs O(min(active, p)) host work plus its requests. The idle
// processors contribute nothing to the charge, exactly as if their
// bodies had returned without a request.
func (m *Mem[V]) ForAll(active int, body func(c *MemCtx[V])) {
	if m.Err() != nil {
		return
	}
	n := min(max(active, 0), m.P())
	if m.InjectorActive() {
		m.Checkpoint()
	}
	w := m.phaseWorkers(n)
	m.lanes = useLanes(m.lanes, sched.NumBlocks(w, n), func() *memLane[V] {
		return &memLane[V]{c: MemCtx[V]{m: m}}
	})
	m.RunPhase(w, n, func(k, lo, hi int) (int32, error) {
		return m.lanes[k].run(lo, hi, body)
	}, m.commit)
}

// Checkpoint snapshots the shared memory and cost aggregates at a
// committed-phase boundary, so a transient fault in the next phase can
// roll back to exactly this state.
func (m *Mem[V]) Checkpoint() {
	m.ckMem = append(m.ckMem[:0], m.mem...)
	if s, ok := any(m.model).(Snapshotter); ok {
		s.Snapshot()
	}
	m.ckCore()
}

// Rollback restores the last Checkpoint: memory contents and the cost
// report (phases, total time, work, round counts) return to the
// checkpointed values. It reports whether a checkpoint was set. Memory
// must not have been resized since the checkpoint (Grow happens between
// phases, checkpoints at phase start).
func (m *Mem[V]) Rollback() bool {
	if !m.rewindCore() {
		return false
	}
	copy(m.mem, m.ckMem)
	if s, ok := any(m.model).(Snapshotter); ok {
		s.Restore()
	}
	return true
}

// corruptCell damages one committed cell (zero value) to model a
// transient memory fault; Rollback repairs it.
func (m *Mem[V]) corruptCell(addr int) {
	if addr >= 0 && addr < len(m.mem) {
		var zero V
		m.mem[addr] = zero
	}
}

// commit is the column barrier: it merges the phase's requests,
// validates access rules, consults the fault injector, charges the phase
// and applies writes, on the coordinating goroutine at every Workers
// setting. m_op and m_rw are the maxima of the lanes' maxima. Contention
// is counted by MemMerger over the lanes' spans, or — with a backend
// attached — by the Backend over a p-long view of the same columns. The
// tail (violation, injector consult, charge, emission and the write
// apply) walks only the lanes and their spans, which hold the active
// processors in ascending order, so the winner at every cell is the last
// write of the highest-numbered processor (merging Applies are
// order-insensitive). A failed backend merge schedules a phase retry or
// poisons the machine per transportStatus; nothing was charged or
// applied, so state is already consistent.
func (m *Mem[V]) commit() PhaseStatus {
	var mOp, mRW int64
	for _, l := range m.lanes {
		mOp, mRW = max(mOp, l.mOp), max(mRW, l.mRW)
	}
	var st MergeStats
	if m.backend != nil {
		reads, writes := backendViews(m.bkReads, m.bkWrites, m.P())
		for _, l := range m.lanes {
			for _, s := range l.spans {
				reads[s.proc] = l.c.readAddrs[s.r0:s.r1]
				writes[s.proc] = l.c.writeAddrs[s.w0:s.w1]
			}
		}
		m.bkReads, m.bkWrites = reads, writes
		var err error
		st, err = m.backend.MergeMem(MemMergeReq{
			Phase: m.curPhase, Attempt: m.attempt, Cells: len(m.mem),
			Reads: reads, Writes: writes,
		})
		if err != nil {
			return m.transportStatus(err)
		}
	} else {
		st = m.mergeLanes()
	}
	if st.Viol >= 0 {
		m.recordViolation(m.model.Violation(), st.Viol)
		return PhaseAborted
	}

	o := Outcome{MaxOps: mOp, MaxRW: mRW, KRead: st.KRead, KWrite: st.KWrite}
	if m.InjectorActive() {
		switch v := m.consultInjector(len(m.mem)); v.Class {
		case FaultPermanent:
			m.recordPermanent(m.model.Prefix(), m.model.Violation(), v)
			return PhaseAborted
		case FaultTransient:
			// The fault fires after the commit applies: charge, let the
			// writes land, damage the target cell — then "detect" it at
			// the barrier and roll back to the phase-start checkpoint.
			// The aborted attempt emits no Request and no PhaseEnd
			// events, per the Observer contract.
			m.chargePhase(o)
			m.applyLaneWrites()
			m.corruptCell(v.Addr)
			m.Rollback()
			return PhaseRetry
		}
	}

	pc := m.chargePhase(o)
	if m.Observing() {
		m.emitRequests()
	}
	m.applyLaneWrites()
	m.observePhaseEnd(pc)
	return PhaseCommitted
}

// mergeLanes counts the lanes' spans with MemMerger in place: every
// lane's reads, then every lane's writes.
func (m *Mem[V]) mergeLanes() MergeStats {
	g := &m.merger
	g.begin(0, len(m.mem))
	for _, l := range m.lanes {
		countLane(g, l.spans, l.c.readAddrs, false, false)
	}
	for _, l := range m.lanes {
		countLane(g, l.spans, l.c.writeAddrs, true, false)
	}
	return g.end()
}

// applyLaneWrites commits the phase's writes straight from the lanes'
// write columns, one Apply per lane in lane order: ascending processor
// order, each processor's writes in issue order.
func (m *Mem[V]) applyLaneWrites() {
	for _, l := range m.lanes {
		if len(l.c.writeAddrs) > 0 {
			m.model.Apply(m.mem, l.c.writeAddrs, l.c.writeVals)
		}
	}
}

// emitRequests renders the phase's requests as observer events, grouped
// by ascending processor and in issue order. It runs before the writes
// apply, so read payloads render the start-of-phase contents the readers
// actually observed.
func (m *Mem[V]) emitRequests() {
	for _, l := range m.lanes {
		c := &l.c
		for _, s := range l.spans {
			for _, a := range c.readAddrs[s.r0:s.r1] {
				m.observeRequest(Request{Proc: int(s.proc), Kind: KindRead, Addr: a,
					Payload: m.model.Render(m.mem[a])})
			}
			for j := s.w0; j < s.w1; j++ {
				m.observeRequest(Request{Proc: int(s.proc), Kind: KindWrite, Addr: c.writeAddrs[j],
					Payload: m.model.Render(c.writeVals[j])})
			}
		}
	}
}
