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
	// Apply commits a sequence of writes to memory, in issue order. The
	// barrier hands it the lane's write column, which holds the
	// processors in ascending order, so a last-writer-wins Apply
	// deterministically commits the final write of the highest-numbered
	// processor; a merging Apply is order-insensitive. addrs is a request column (see RunFill): a run
	// of n cells takes the next n values of vals, one value per cell,
	// and a fill run takes the next one value for all n cells.
	Apply(mem []V, addrs []int32, vals []V)
	// Render formats a cell/payload value for observer events.
	Render(v V) string
}

// shared is the shared-memory phase engine, written once for both cell
// stores: Mem keeps one V per cell (W = V), BitMem packs 64 Boolean
// cells into a uint64 word (W = uint64). It owns the phase lifecycle —
// Phase/ForAll dispatch over the request lane, Grow, Checkpoint/Rollback —
// and the barrier's gather and poison; the store type embedding it
// supplies only its codec (apply, record, corrupt) and is the column
// source the barrier reads. C is the store's processor context, which
// embeds a cursor over W.
type shared[W, C any] struct {
	store[W]
	// src is the embedding store type.
	src columnSource

	// lane is the machine's request lane; its columns keep their
	// capacity across phases, so a phase costs O(processors dispatched)
	// plus O(requests), whatever p is.
	lane lane[W, C]
	// ck is the storage snapshot of the last Checkpoint (reused across
	// phases; n/64 words for n packed bits). A shallow element copy
	// suffices: Apply replaces cell values rather than mutating them in
	// place (last-writer-wins stores, GSM's copy-on-write Merge).
	ck []W //repro:pooled
	// Column-barrier scratch (see gather): merger counts the lane's
	// columns in process, and bkReads/bkWrites are the p-long column
	// views handed to a commit backend (one borrowed slice per
	// processor, nil for a processor that recorded nothing).
	merger            MemMerger
	bkReads, bkWrites [][]int32 //repro:pooled
}

// store is the part of the engine a processor context reads: the
// model's naming, the live storage and, through Core, the memory size in
// cells. shift is log2 of the cells per storage word: 0 for one cell per
// word, 6 for packed bits.
type store[W any] struct {
	Core
	model BitModel
	mem   []W //repro:pooled
	shift uint
}

// init prepares the engine for a machine with the given store type,
// model, storage shift, parameters, input size and initial (zero-valued)
// memory size in cells.
func (m *shared[W, C]) init(src columnSource, model BitModel, shift uint, params cost.Params, n, cells int) {
	m.Core.Init(model, params, n)
	m.src, m.model, m.shift = src, model, shift
	m.lane.init(&m.store)
	m.Grow(cells)
}

// MemSize returns the current shared-memory size in cells.
func (m *shared[W, C]) MemSize() int { return m.cells }

// Grow extends the shared memory to at least size cells (zero valued).
// Growing memory is free in the models: it allocates address space, not
// work. Capacity grows geometrically, so an algorithm that grows its
// memory every level copies each cell O(1) times amortised. Slices
// previously returned by Data or Words are invalidated. Growing past the
// address space (int32 addresses; 2^30 cells for packed bits, whose
// write entries spend a bit on the payload) poisons the machine and
// leaves the memory as it is.
func (m *shared[W, C]) Grow(size int) {
	if size <= m.cells {
		return
	}
	limit := maxAddr
	if m.shift > 0 {
		limit = maxBitCells
	}
	if size > limit {
		m.RecordErr(fmt.Errorf("%s: memory of %d cells exceeds the %d-cell address space",
			m.model.Prefix(), size, limit))
		return
	}
	m.cells = size
	old, nw := len(m.mem), (size+1<<m.shift-1)>>m.shift
	switch {
	case nw <= old:
	case nw > cap(m.mem):
		grown := make([]W, nw, max(nw, 2*cap(m.mem)))
		copy(grown, m.mem)
		m.mem = grown
	default:
		m.mem = m.mem[:nw]
		clear(m.mem[old:])
	}
}

// cursor is the store-independent half of a processor context: the
// processor it serves, that processor's charges and first failure, and
// the lane's request columns, which the processors append to one after
// another. MemCtx and BitCtx embed it and Sends wraps it; the
// engine points it at one processor at a time, so a context is valid
// only during that processor's body call and must not be retained or
// shared. m is the store a shared-memory context reads (nil in Sends).
type cursor[W any] struct {
	proc  int
	m     *store[W]
	reads int64
	wrs   int64
	ops   int64

	readAddrs []int32 //repro:pooled
	// writes is the write column: cell addresses, or PackWrite entries
	// in a packed store. writeVals holds a word store's values and stays
	// empty in a packed one.
	writes    []int32 //repro:pooled
	writeVals []W     //repro:pooled
	// runs is set once a block call stages a run in the lane this phase,
	// so the barrier knows the lane needs the run walk.
	runs bool
	fail error
}

// Proc returns this processor's index in [0, P).
func (c *cursor[W]) Proc() int { return c.proc }

// Op charges k units of local computation (free under cost rules that
// ignore m_op, such as the GSM's).
func (c *cursor[W]) Op(k int) {
	if k > 0 {
		c.ops += int64(k)
	}
}

func (c *cursor[W]) failf(format string, args ...any) {
	if c.fail == nil {
		c.fail = fmt.Errorf("%s: proc %d: "+format,
			append([]any{c.m.model.Prefix(), c.proc}, args...)...)
	}
}

// base is how the engine reaches the cursor embedded in a context type.
func (c *cursor[W]) base() *cursor[W] { return c }

// Phase runs one bulk-synchronous phase: body is invoked once per
// processor, in ascending order, requests are merged at
// the barrier (see Core.commit), the phase is charged under the model's
// cost rule, and writes commit. Phase is a no-op once the machine has
// erred.
func (m *shared[W, C]) Phase(body func(c *C)) { m.ForAll(m.P(), body) }

// ForAll runs a phase in which only processors with index < active
// participate: processors ≥ active are not dispatched at all, so the
// phase costs O(min(active, p)) host work plus its requests. The idle
// processors contribute nothing to the charge, exactly as if their
// bodies had returned without a request.
func (m *shared[W, C]) ForAll(active int, body func(c *C)) {
	n := min(max(active, 0), m.P())
	m.runPhase(func() (int32, error) { return m.lane.run(&m.Core, n, body) }, m.src)
}

// Checkpoint snapshots the shared memory and cost aggregates at a
// committed-phase boundary, so a transient fault in the next phase can
// roll back to exactly this state.
func (m *shared[W, C]) Checkpoint() {
	m.ck = append(m.ck[:0], m.mem...)
	m.ckCore()
}

// Rollback restores the last Checkpoint: memory contents and the cost
// report (phases, total time, work, round counts) return to the
// checkpointed values. It reports whether a checkpoint was set. Memory
// must not have been resized since the checkpoint (Grow happens between
// phases, checkpoints at phase start).
func (m *shared[W, C]) Rollback() bool {
	if !m.rewindCore() {
		return false
	}
	copy(m.mem, m.ck)
	return true
}

// gather is the shared-memory half of the barrier's merge: m_op and m_rw
// are the lane's maxima, and contention is counted by MemMerger over the
// lane's spans (mergeLane) or, with a backend attached, by the Backend
// over a p-long view of the same columns.
func (m *shared[W, C]) gather() (Outcome, int32, error) {
	o := Outcome{MaxOps: m.lane.mOp, MaxRW: m.lane.mRW}
	var st MergeStats
	if m.backend != nil {
		p := m.P()
		m.bkReads = colViews(m.bkReads, p, &m.lane, false)
		m.bkWrites = colViews(m.bkWrites, p, &m.lane, true)
		var err error
		st, err = m.backend.MergeMem(MemMergeReq{
			Phase: m.curPhase, Attempt: m.attempt, Cells: m.cells, Packed: m.shift > 0,
			Reads: m.bkReads, Writes: m.bkWrites,
		})
		if err != nil {
			return o, -1, err
		}
	} else {
		st = mergeLane(&m.merger, &m.lane, m.cells, m.P(), m.shift > 0)
	}
	o.KRead, o.KWrite = st.KRead, st.KWrite
	return o, st.Viol, nil
}

// poison records why a shared-memory phase aborts. Injected
// contention-rule violations wrap the model's own sentinel too (multi-%w),
// so they satisfy errors.Is for both the fault sentinel and the model's
// Violation — exactly like a real access-rule breach. Other permanent
// faults keep the package prefix wording.
func (m *shared[W, C]) poison(cell int32, v Verdict) {
	ph := m.report.NumPhases()
	switch {
	case cell >= 0:
		m.RecordErr(fmt.Errorf("%w: cell %d both read and written in phase %d",
			m.model.Violation(), cell, ph))
	case v.Violation:
		m.RecordErr(fmt.Errorf("%w: %w in phase %d", m.model.Violation(), v.Err, ph))
	default:
		m.RecordErr(fmt.Errorf("%s: phase %d: %w", m.model.Prefix(), ph, v.Err))
	}
}

// Mem is the shared-memory engine over one V per cell. Machine adapters
// embed it and gain the full phase lifecycle: Phase/ForAll dispatch, the
// column barrier with contention accounting and violation detection,
// deterministic write application via the model's Apply, and observer
// emission.
type Mem[V any] struct {
	shared[V, MemCtx[V]]
	// model is the adapter's model, with the Apply and Render the codec
	// uses; the engine's copy sees only its BitModel half.
	model MemModel[V]
}

// InitMem prepares the engine for a machine with the given model,
// parameters, input size and initial (zero-valued) memory size.
func (m *Mem[V]) InitMem(model MemModel[V], params cost.Params, n, cells int) {
	m.model = model
	m.init(m, model, 0, params, n, cells)
}

// Data returns the live memory slice for adapter-side access (input
// loading, host-side peeks, trace snapshots). Grow invalidates it.
func (m *Mem[V]) Data() []V { return m.mem } //lint:colescape-ok documented borrow point: the live cell image; callers are policed at their use sites

// MemCtx is the processor handle available inside a phase of a Mem
// machine: a cursor (see cursor) with word-valued reads and writes.
type MemCtx[V any] struct {
	cursor[V]
}

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
	c.writes = append(c.writes, int32(addr))
	c.writeVals = append(c.writeVals, val)
}

// apply commits the phase's writes straight from the lane's write
// column in one Apply: ascending processor order, each processor's
// writes in issue order.
func (m *Mem[V]) apply() {
	if c := m.lane.cur; len(c.writes) > 0 {
		m.model.Apply(m.mem, c.writes, c.writeVals)
	}
}

// record hands l the phase before the writes apply: the lane's columns
// as staged, its write values, and a block copy of the cells the reads
// observed.
func (m *Mem[V]) record(l *EventLog) {
	vals := recordLane[V, MemCtx[V], V](l, &m.Core, &m.lane, m.model, KindWrite, false)
	c := m.lane.cur
	for i := 0; i < len(c.readAddrs); {
		a, n, next := Run(c.readAddrs, i)
		vals, i = vals[copy(vals, m.mem[a:int(a)+n]):], next
	}
	copy(vals, c.writeVals)
}

// corrupt damages one committed cell (zero value) to model a transient
// memory fault; Rollback repairs it.
func (m *Mem[V]) corrupt(v Verdict) {
	if v.Addr >= 0 && v.Addr < m.cells {
		var zero V
		m.mem[v.Addr] = zero
	}
}
