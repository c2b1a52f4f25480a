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
	// Apply commits one bucket of writes to memory. Buckets hold requests
	// in ascending processor order and are applied in chunk order, so a
	// last-writer-wins Apply deterministically commits the final write of
	// the highest-numbered processor; a merging Apply is order-insensitive.
	Apply(mem []V, addrs []int32, vals []V)
	// Scrub drops references retained in a recycled payload bucket so the
	// free-listed scratch does not pin payload memory; a no-op for
	// pointer-free payloads.
	Scrub(vals []V)
	// Render formats a cell/payload value for observer events.
	Render(v V) string
}

// Mem is the shared-memory phase engine. Machine adapters embed it and
// gain the full phase lifecycle: Phase/ForAll dispatch, the commit
// barrier (serial column barrier at one worker, two-pass sharded commit
// above that) with contention accounting and violation detection,
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
	// cb holds the reusable scratch of the sharded commit pipeline
	// (Workers > 1); the column barrier never touches it.
	cb memBuf[V]
	// ckMem is the memory snapshot of the last Checkpoint (reused across
	// phases). A shallow element copy suffices: the engine's Apply
	// contract replaces cell values rather than mutating them in place
	// (last-writer-wins stores, GSM's copy-on-write Merge).
	ckMem []V
	// Column-barrier scratch (see commitBackend): active lists the
	// processors that issued requests this phase, merger counts their
	// columns on the serial path, and bkReads/bkWrites are the column
	// views handed to a commit backend (one borrowed slice per processor).
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
	workers := m.phaseWorkers()
	if m.InjectorActive() {
		m.Checkpoint()
	}
	m.RunPhase(workers, p, func(lo, hi int) (int32, error) {
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
	}, func() PhaseStatus { return m.commit(workers) })
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

// memBuf is the reusable scratch of the sharded phase commit. Requests
// are first bucketed by address shard (one bucket per merge-chunk ×
// shard, filled in processor order), then each shard is counted and
// resolved independently over its private slice of the address-space
// scratch arrays. Everything is retained across phases, so a steady-state
// phase allocates nothing here.
type memBuf[V any] struct {
	// Pass-1 buckets, indexed [chunk*numShards + shard].
	rAddr, rProc [][]int32
	wAddr, wProc [][]int32
	wVal         [][]V
	// Per-chunk local-cost maxima.
	mOp, mRW []int64
	// Per-shard contention maxima and smallest violating cell (−1 = none).
	kr, kw []int64
	viol   []int32
	// Address-space scratch: count holds +readers/−writers per cell, last
	// the dedup mark (proc+1 for reads, −(proc+1) for writes); both are
	// zeroed via the per-shard touched lists after every phase.
	count, last []int32
	touched     [][]int32
}

// ensure sizes the scratch for the current memory size and returns the
// sharding and the number of pass-1 merge chunks.
func (b *memBuf[V]) ensure(memSize, workers, p int) (sh sched.Sharding, nm int) {
	nm = sched.NumBlocks(workers, p)
	sh = sched.NewSharding(memSize, workers)
	if nb := nm * sh.N; len(b.rAddr) < nb {
		b.rAddr = growSlices(b.rAddr, nb)
		b.rProc = growSlices(b.rProc, nb)
		b.wAddr = growSlices(b.wAddr, nb)
		b.wProc = growSlices(b.wProc, nb)
		b.wVal = growSlices(b.wVal, nb)
	}
	if len(b.mOp) < nm {
		b.mOp = make([]int64, nm) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.mRW = make([]int64, nm) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
	}
	if len(b.kr) < sh.N {
		b.kr = make([]int64, sh.N)   //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.kw = make([]int64, sh.N)   //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.viol = make([]int32, sh.N) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.touched = growSlices(b.touched, sh.N)
	}
	if len(b.count) < memSize {
		b.count = make([]int32, memSize) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.last = make([]int32, memSize)  //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
	}
	return sh, nm
}

func growSlices[T any](s [][]T, n int) [][]T {
	for len(s) < n {
		s = append(s, nil)
	}
	return s
}

// commit merges per-processor buffers, validates access rules, consults
// the fault injector, charges the phase and applies writes. A phase with
// one worker, or with a backend attached, takes the column barrier
// (commitBackend). Otherwise the merge runs in two parallel passes:
// bucket requests by address shard (over processor chunks), then count
// contention, resolve winners and detect violations per shard. Results
// are identical for every Workers setting: buckets are filled in
// processor order and scanned in chunk order, and the injector consult
// happens exactly once per attempt on the coordinating goroutine.
func (m *Mem[V]) commit(workers int) PhaseStatus {
	if m.backend != nil || workers <= 1 {
		return m.commitBackend()
	}
	ctxs := m.ctxs
	b := &m.cb
	sh, nm := b.ensure(len(m.mem), workers, len(ctxs))
	ns := sh.N

	// Pass 1: per-chunk cost maxima + requests bucketed by address shard.
	sched.Blocks(workers, len(ctxs), func(w, lo, hi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
		var mOp, mRW int64
		base := w * ns
		for i := lo; i < hi; i++ {
			c := ctxs[i]
			mOp = max(mOp, c.ops)
			mRW = max(mRW, c.reads, c.wrs)
			proc := int32(i)
			for _, a := range c.readAddrs {
				k := base + sh.Shard(a)
				b.rAddr[k] = append(b.rAddr[k], a)
				b.rProc[k] = append(b.rProc[k], proc)
			}
			for j, a := range c.writeAddrs {
				k := base + sh.Shard(a)
				b.wAddr[k] = append(b.wAddr[k], a)
				b.wProc[k] = append(b.wProc[k], proc)
				b.wVal[k] = append(b.wVal[k], c.writeVals[j])
			}
		}
		b.mOp[w], b.mRW[w] = mOp, mRW
	})

	// Pass 2: per-shard contention counting and violation detection.
	// Contention is the number of *processors* accessing a cell (paper
	// definition): duplicate requests by one processor dedupe via the last
	// mark (they still count toward its m_rw). Within a shard all reads
	// are scanned before all writes, so a positive count at a written cell
	// means the cell was read this phase — the forbidden read+write mix.
	sched.Blocks(workers, ns, func(_, slo, shi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
		for s := slo; s < shi; s++ {
			var kr, kw int64
			viol := int32(-1)
			touched := b.touched[s][:0]
			for w := 0; w < nm; w++ {
				k := w*ns + s
				procs := b.rProc[k]
				for j, a := range b.rAddr[k] {
					pr := procs[j] + 1
					if b.last[a] == pr {
						continue
					}
					b.last[a] = pr
					if b.count[a] == 0 {
						touched = append(touched, a)
					}
					b.count[a]++
					kr = max(kr, int64(b.count[a]))
				}
			}
			for w := 0; w < nm; w++ {
				k := w*ns + s
				procs := b.wProc[k]
				for j, a := range b.wAddr[k] {
					if b.count[a] > 0 {
						if viol < 0 || a < viol {
							viol = a
						}
						continue
					}
					pr := -(procs[j] + 1)
					if b.last[a] == pr {
						continue
					}
					b.last[a] = pr
					if b.count[a] == 0 {
						touched = append(touched, a)
					}
					b.count[a]--
					kw = max(kw, int64(-b.count[a]))
				}
			}
			b.kr[s], b.kw[s], b.viol[s] = kr, kw, viol
			b.touched[s] = touched
		}
	})

	var mOp, mRW int64
	for w := 0; w < nm; w++ {
		mOp = max(mOp, b.mOp[w])
		mRW = max(mRW, b.mRW[w])
	}
	var kr, kw int64
	violAddr := int32(-1)
	for s := 0; s < ns; s++ {
		kr = max(kr, b.kr[s])
		kw = max(kw, b.kw[s])
		if b.viol[s] >= 0 && (violAddr < 0 || b.viol[s] < violAddr) {
			violAddr = b.viol[s]
		}
	}
	if violAddr >= 0 {
		m.recordViolation(m.model.Violation(), violAddr)
		m.finish(workers, nm, ns, false)
		return PhaseAborted
	}

	if m.InjectorActive() {
		switch v := m.consultInjector(len(m.mem)); v.Class {
		case FaultPermanent:
			m.recordPermanent(m.model.Prefix(), m.model.Violation(), v)
			m.finish(workers, nm, ns, false)
			return PhaseAborted
		case FaultTransient:
			// The fault fires after the commit applies: charge, let the
			// writes land, damage the target cell — then "detect" it at
			// the barrier and roll back to the phase-start checkpoint.
			// The aborted attempt emits no Request and no PhaseEnd
			// events, per the Observer contract.
			m.chargePhase(Outcome{MaxOps: mOp, MaxRW: mRW, KRead: kr, KWrite: kw})
			m.finish(workers, nm, ns, true)
			m.corruptCell(v.Addr)
			m.Rollback()
			return PhaseRetry
		}
	}

	pc := m.chargePhase(Outcome{MaxOps: mOp, MaxRW: mRW, KRead: kr, KWrite: kw})
	if m.Observing() {
		m.emitRequests()
	}
	m.finish(workers, nm, ns, true)
	m.observePhaseEnd(pc)
	return PhaseCommitted
}

// commitBackend is the column barrier: the serial commit (one worker, no
// backend) and the backend commit share it, and differ only in who
// counts contention. One scan of the phase contexts gathers m_op/m_rw
// and the ascending list of processors that issued any request; the
// serial path then counts those processors' own read and write columns
// with MemMerger in place, while the backend path hands every column
// (borrowed, index = processor) to the attached Backend. The tail —
// violation, injector consult, charge, emission and the write apply —
// is shared and walks only the active processors. Writes apply per
// processor in ascending order, which commits the same winner at every
// cell as the sharded bucket replay (last write of the highest-numbered
// processor; merging Applies are order-insensitive). A failed backend
// merge schedules a phase retry or poisons the machine per
// transportStatus; nothing was charged or applied, so state is already
// consistent.
func (m *Mem[V]) commitBackend() PhaseStatus {
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
	m.active, m.bkReads, m.bkWrites = active, reads, writes //lint:commitpurity-ok column-header scratch pooled by the commit barrier itself; commitBackend is the serial and backend commit entry point
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
		switch v := m.consultInjector(len(m.mem)); v.Class { //lint:injectoronce-ok commitBackend IS the commit barrier on the serial and backend paths; one draw per attempt, same as the sharded path
		case FaultPermanent:
			m.recordPermanent(m.model.Prefix(), m.model.Violation(), v)
			return PhaseAborted
		case FaultTransient:
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
// processors' contexts in ascending processor order (the column
// barrier's replacement for the sharded bucket replay).
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

// finish applies the phase's writes (unless aborted by a violation) via
// the model's Apply and zeroes the scratch for the next phase, both in
// parallel over shards. Buckets hold requests in ascending processor
// order and are replayed in chunk order, giving Apply its deterministic
// replay contract.
func (m *Mem[V]) finish(workers, nm, ns int, applyWrites bool) {
	b := &m.cb
	sched.Blocks(workers, ns, func(_, slo, shi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
		for s := slo; s < shi; s++ {
			for w := 0; w < nm; w++ {
				k := w*ns + s
				if len(b.wAddr[k]) > 0 {
					if applyWrites {
						m.model.Apply(m.mem, b.wAddr[k], b.wVal[k])
					}
					m.model.Scrub(b.wVal[k])
				}
				b.rAddr[k] = b.rAddr[k][:0]
				b.rProc[k] = b.rProc[k][:0]
				b.wAddr[k] = b.wAddr[k][:0]
				b.wProc[k] = b.wProc[k][:0]
				b.wVal[k] = b.wVal[k][:0]
			}
			for _, a := range b.touched[s] {
				b.count[a] = 0
				b.last[a] = 0
			}
			b.touched[s] = b.touched[s][:0]
		}
	})
}
