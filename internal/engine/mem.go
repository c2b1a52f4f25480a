package engine

import (
	"fmt"

	"repro/internal/cost"
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
	// Apply commits one processor's writes to memory, in issue order.
	// The barrier applies processors in ascending order, so a
	// last-writer-wins Apply deterministically commits the final write of
	// the highest-numbered processor; a merging Apply is order-insensitive.
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

	// ctxs is the per-machine free list of phase contexts: one per
	// processor, reset and reused every phase so request buffers keep
	// their capacity instead of being reallocated O(p) times per phase.
	ctxs []*MemCtx[V]
	// ckMem is the memory snapshot of the last Checkpoint (reused across
	// phases). A shallow element copy suffices: the engine's Apply
	// contract replaces cell values rather than mutating them in place
	// (last-writer-wins stores, GSM's copy-on-write Merge).
	ckMem []V
	// Column-barrier scratch (see commit): active lists the processors
	// that issued requests this phase, merger counts their columns in
	// process, and bkReads/bkWrites are the column views handed to a
	// commit backend (one borrowed slice per processor).
	active            []int32
	merger            MemMerger
	bkReads, bkWrites [][]int32
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
// loading, host-side peeks, trace snapshots).
func (m *Mem[V]) Data() []V { return m.mem } //lint:colescape-ok documented borrow point: the live cell image; callers are policed at their use sites

// MemSize returns the current shared-memory size in cells.
func (m *Mem[V]) MemSize() int { return len(m.mem) }

// Grow extends the shared memory to at least size cells (zero valued).
// Growing memory is free in the models: it allocates address space, not
// work.
func (m *Mem[V]) Grow(size int) {
	if size > len(m.mem) {
		grown := make([]V, size)
		copy(grown, m.mem)
		m.mem = grown
	}
}

// MemCtx is the per-processor handle available inside a phase. It is not
// safe to share a MemCtx across processors.
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

func (c *MemCtx[V]) reset() {
	c.reads, c.wrs, c.ops = 0, 0, 0
	c.readAddrs = c.readAddrs[:0]
	c.writeAddrs = c.writeAddrs[:0]
	c.writeVals = c.writeVals[:0]
	c.fail = nil
}

// phaseWorkers returns the effective worker count for this machine's p
// under the model's grain.
func (m *Mem[V]) phaseWorkers() int {
	g := m.model.Grain()
	if g <= 1 {
		return m.Workers()
	}
	return min(m.Workers(), (m.P()+g-1)/g)
}

// Phase runs one bulk-synchronous phase: body is invoked once per
// processor (concurrently over contiguous chunks), requests are merged at
// the barrier (see commit), the phase is charged under
// the model's cost rule, and writes commit. Phase is a no-op once the
// machine has erred.
func (m *Mem[V]) Phase(body func(c *MemCtx[V])) {
	if m.Err() != nil {
		return
	}
	p := m.P()
	if m.ctxs == nil {
		m.ctxs = make([]*MemCtx[V], p)
		for i := range m.ctxs {
			m.ctxs[i] = &MemCtx[V]{proc: i, m: m}
		}
	}
	if m.InjectorActive() {
		m.Checkpoint()
	}
	m.RunPhase(m.phaseWorkers(), p, func(lo, hi int) (int32, error) {
		var nf int32
		var first error
		for i := lo; i < hi; i++ {
			c := m.ctxs[i]
			c.reset()
			if m.CrashedProc(i) {
				// Masked processors idle: no body, no requests. The
				// crash flag is written at the previous phase's barrier,
				// so masking is visible here race-free.
				continue
			}
			body(c)
			if c.fail != nil {
				if first == nil {
					first = c.fail
				}
				nf++
			}
		}
		return nf, first //lint:colescape-ok first is the earliest processor failure, a fresh error from failf; it does not alias pooled storage
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

// ForAll is a convenience wrapper: it runs a phase in which only
// processors with index < active participate; the rest idle.
func (m *Mem[V]) ForAll(active int, body func(c *MemCtx[V])) {
	m.Phase(func(c *MemCtx[V]) {
		if c.proc < active {
			body(c)
		}
	})
}

// commit is the column barrier: it merges the phase's requests,
// validates access rules, consults the fault injector, charges the phase
// and applies writes, on the coordinating goroutine at every Workers
// setting. One scan of the phase contexts gathers m_op/m_rw and the
// ascending list of processors that issued any request. Contention is
// then counted by MemMerger over those processors' own read and write
// columns, or — with a backend attached — by the Backend over every
// column (borrowed, index = processor). The tail (violation, injector
// consult, charge, emission and the write apply) walks only the active
// processors. Writes apply per processor in ascending order, so the
// winner at every cell is the last write of the highest-numbered
// processor (merging Applies are order-insensitive). A failed backend
// merge schedules a phase retry or poisons the machine per
// transportStatus; nothing was charged or applied, so state is already
// consistent.
func (m *Mem[V]) commit() PhaseStatus {
	bk := m.backend != nil
	var mOp, mRW int64
	active := m.active[:0]
	reads, writes := m.bkReads[:0], m.bkWrites[:0]
	for i, c := range m.ctxs {
		mOp = max(mOp, c.ops)
		mRW = max(mRW, c.reads, c.wrs)
		if len(c.readAddrs) > 0 || len(c.writeAddrs) > 0 {
			active = append(active, int32(i))
		}
		if bk {
			reads = append(reads, c.readAddrs)
			writes = append(writes, c.writeAddrs)
		}
	}
	m.active, m.bkReads, m.bkWrites = active, reads, writes
	var st MergeStats
	if bk {
		var err error
		st, err = m.backend.MergeMem(MemMergeReq{
			Phase: m.curPhase, Attempt: m.attempt, Cells: len(m.mem),
			Reads: reads, Writes: writes,
		})
		if err != nil {
			return m.transportStatus(err)
		}
	} else {
		st = m.mergeActive()
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
			m.applyCtxWrites()
			m.corruptCell(v.Addr)
			m.Rollback()
			return PhaseRetry
		}
	}

	pc := m.chargePhase(o)
	if m.Observing() {
		m.emitRequests()
	}
	m.applyCtxWrites()
	m.observePhaseEnd(pc)
	return PhaseCommitted
}

// mergeActive counts the active processors' columns with MemMerger in
// place, handing their headers over in batches held on the stack.
func (m *Mem[V]) mergeActive() MergeStats {
	g := &m.merger
	g.begin(0, len(m.mem))
	var cols [colBatch][]int32
	for rest := m.active; len(rest) > 0; {
		n := min(len(rest), colBatch)
		for j, i := range rest[:n] {
			cols[j] = m.ctxs[i].readAddrs
		}
		g.reads(rest[:n], cols[:n])
		rest = rest[n:]
	}
	for rest := m.active; len(rest) > 0; {
		n := min(len(rest), colBatch)
		for j, i := range rest[:n] {
			cols[j] = m.ctxs[i].writeAddrs
		}
		g.writes(rest[:n], cols[:n], false)
		rest = rest[n:]
	}
	return g.end()
}

// applyCtxWrites commits the phase's writes straight from the active
// processors' contexts in ascending processor order.
func (m *Mem[V]) applyCtxWrites() {
	for _, i := range m.active {
		if c := m.ctxs[i]; len(c.writeAddrs) > 0 {
			m.model.Apply(m.mem, c.writeAddrs, c.writeVals)
		}
	}
}

// emitRequests renders the phase's requests as observer events, grouped
// by ascending processor and in issue order. It runs before the writes
// apply, so read payloads render the start-of-phase contents the readers
// actually observed.
func (m *Mem[V]) emitRequests() {
	for i, c := range m.ctxs {
		for _, a := range c.readAddrs {
			m.observeRequest(Request{Proc: i, Kind: KindRead, Addr: a,
				Payload: m.model.Render(m.mem[a])})
		}
		for j, a := range c.writeAddrs {
			m.observeRequest(Request{Proc: i, Kind: KindWrite, Addr: a,
				Payload: m.model.Render(c.writeVals[j])})
		}
	}
}
