package engine

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sched"
)

// BitMem is the bit-packed specialization of the shared-memory phase
// engine for Boolean workloads (Parity, OR): one bit per cell instead of
// one V per cell, 64 cells to a machine word. The phase lifecycle,
// contention accounting, violation detection, fault-injection points and
// observer emission are exactly Mem's — a Boolean algorithm run on a
// BitMem machine produces the same cost report and the same event stream
// as the equivalent word-valued run — only the storage and the commit
// apply are word-level.
//
// At one worker the serial column barrier counts contention over the
// packed write columns (addr<<1 | bit) with MemMerger and applies them
// per active processor. Above one worker commit writes are sharded over
// the *word* space (shard key addr>>6), never the bit space: every word
// belongs to exactly one shard, so the parallel apply and the per-bit
// contention scratch touch disjoint words without atomics.
// Checkpoint/rollback and corruptCell operate on the packed words too, so
// a transient fault over n bits copies n/64 words.

// BitModel is the adapter contract of a bit-valued shared-memory
// machine: the model's naming, cost rule, error prefix and violation
// sentinel. Write commit is last-writer-wins by definition (there is no
// payload to merge), and observer payloads render as "0"/"1" — matching
// the word-valued renderers on Boolean data, which is what makes the
// bit-packed and word-valued event streams comparable.
type BitModel interface {
	Model
	// Prefix is the package error prefix ("qsm", …).
	Prefix() string
	// Violation is the package's sentinel error wrapping memory-access-
	// rule violations.
	Violation() error
}

// maxBitCells bounds the bit-address space so a packed write record
// (addr<<1 | bit) fits an int32 column entry.
const maxBitCells = 1 << 30

// BitMem is the bit-packed shared-memory phase engine. Adapters embed it
// exactly like Mem.
type BitMem struct {
	Core
	model BitModel
	words []uint64
	nbits int

	// ctxs is the per-machine free list of phase contexts, one per
	// processor, reset and reused every phase.
	ctxs []*BitCtx
	// cb holds the reusable scratch of the sharded commit pipeline
	// (Workers > 1); the column barrier never touches it.
	cb bitBuf
	// ckWords is the word-level memory snapshot of the last Checkpoint.
	ckWords []uint64
	// Column-barrier scratch, as in Mem: the active processors, the
	// serial contention counter, and the column-of-columns headers handed
	// to an attached Backend (the columns themselves are borrowed from the
	// phase contexts).
	active            []int32
	merger            MemMerger
	bkReads, bkWrites [][]int32
}

// InitBits prepares the engine for a machine with the given model,
// parameters, input size, worker budget and initial (zero-valued) memory
// size in bits.
func (m *BitMem) InitBits(model BitModel, params cost.Params, n, workers, cells int) error {
	if cells > maxBitCells {
		return fmt.Errorf("%s: bit memory of %d cells exceeds the %d-cell address space",
			model.Prefix(), cells, maxBitCells)
	}
	m.Core.Init(model, params, n, workers)
	m.model = model
	m.nbits = cells
	m.words = make([]uint64, (cells+63)/64)
	return nil
}

// MemSize returns the current shared-memory size in bits (cells).
func (m *BitMem) MemSize() int { return m.nbits }

// Words returns the live packed words for adapter-side snapshots; bit i
// of the memory is words[i/64] >> (i%64) & 1.
func (m *BitMem) Words() []uint64 { return m.words } //lint:colescape-ok documented borrow point: the live word image; callers are policed at their use sites

// Bit reads cell addr outside of any phase (host-side, uncharged);
// callers validate the address.
func (m *BitMem) Bit(addr int) bool {
	return m.words[addr>>6]>>(uint(addr)&63)&1 == 1
}

// SetBit stores cell addr outside of any phase (input loading,
// uncharged); callers validate the address.
func (m *BitMem) SetBit(addr int, v bool) {
	if v {
		m.words[addr>>6] |= 1 << (uint(addr) & 63)
	} else {
		m.words[addr>>6] &^= 1 << (uint(addr) & 63)
	}
}

// Grow extends the shared memory to at least size bits (zero valued).
func (m *BitMem) Grow(size int) error {
	if size > maxBitCells {
		return fmt.Errorf("%s: bit memory of %d cells exceeds the %d-cell address space",
			m.model.Prefix(), size, maxBitCells)
	}
	if size > m.nbits {
		m.nbits = size
		if nw := (size + 63) / 64; nw > len(m.words) {
			grown := make([]uint64, nw)
			copy(grown, m.words)
			m.words = grown
		}
	}
	return nil
}

// BitCtx is the per-processor handle available inside a phase of a
// bit-valued machine. It is not safe to share a BitCtx across
// processors.
type BitCtx struct {
	proc  int
	m     *BitMem
	reads int64
	wrs   int64
	ops   int64

	readAddrs []int32
	// writes is the packed write column: addr<<1 | bit.
	writes []int32
	fail   error
}

// Proc returns this processor's index in [0, P).
func (c *BitCtx) Proc() int { return c.proc }

// Read returns the bit as of the start of the phase and charges one
// shared-memory read. The model discipline of MemCtx.Read applies
// unchanged.
func (c *BitCtx) Read(addr int) bool {
	if addr < 0 || addr >= c.m.nbits {
		c.failf("read out of range: cell %d of %d", addr, c.m.nbits)
		return false
	}
	c.reads++
	c.readAddrs = append(c.readAddrs, int32(addr))
	return c.m.words[addr>>6]>>(uint(addr)&63)&1 == 1
}

// ReadWord reads the k ≤ 64 consecutive bits [addr, addr+k) in one call,
// charging k reads, and returns them packed with bit addr in the low
// position. It records exactly the request sequence of k per-cell reads
// at ascending addresses.
func (c *BitCtx) ReadWord(addr, k int) uint64 {
	if k < 0 || k > 64 || addr < 0 || addr+k > c.m.nbits {
		c.failf("read word out of range: cells [%d,%d) of %d", addr, addr+k, c.m.nbits)
		return 0
	}
	c.reads += int64(k)
	c.readAddrs = appendSeq(c.readAddrs, int32(addr), k)
	lo := uint(addr) & 63
	w := c.m.words[addr>>6] >> lo
	if rest := 64 - int(lo); k > rest {
		w |= c.m.words[(addr>>6)+1] << uint(rest)
	}
	if k < 64 {
		w &= 1<<uint(k) - 1
	}
	return w
}

// Write queues a write of bit to the cell, committing last-writer-wins
// at the phase barrier, and charges one write.
func (c *BitCtx) Write(addr int, bit bool) {
	if addr < 0 || addr >= c.m.nbits {
		c.failf("write out of range: cell %d of %d", addr, c.m.nbits)
		return
	}
	c.wrs++
	p := int32(addr) << 1
	if bit {
		p |= 1
	}
	c.writes = append(c.writes, p)
}

// Op charges k units of local computation.
func (c *BitCtx) Op(k int) {
	if k > 0 {
		c.ops += int64(k)
	}
}

func (c *BitCtx) failf(format string, args ...any) {
	if c.fail == nil {
		c.fail = fmt.Errorf("%s: proc %d: "+format,
			append([]any{c.m.model.Prefix(), c.proc}, args...)...)
	}
}

func (c *BitCtx) reset() {
	c.reads, c.wrs, c.ops = 0, 0, 0
	c.readAddrs = c.readAddrs[:0]
	c.writes = c.writes[:0]
	c.fail = nil
}

// Phase runs one bulk-synchronous phase over the bit memory; the
// lifecycle is identical to Mem.Phase.
func (m *BitMem) Phase(body func(c *BitCtx)) {
	if m.Err() != nil {
		return
	}
	p := m.P()
	if m.ctxs == nil {
		m.ctxs = make([]*BitCtx, p)
		for i := range m.ctxs {
			m.ctxs[i] = &BitCtx{proc: i, m: m}
		}
	}
	workers := m.Workers()
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

// Checkpoint snapshots the packed words and cost aggregates at a
// committed-phase boundary (n/64 word copies for n bits).
func (m *BitMem) Checkpoint() {
	m.ckWords = append(m.ckWords[:0], m.words...)
	if s, ok := any(m.model).(Snapshotter); ok {
		s.Snapshot()
	}
	m.ckCore()
}

// Rollback restores the last Checkpoint; it reports whether a checkpoint
// was set.
func (m *BitMem) Rollback() bool {
	if !m.rewindCore() {
		return false
	}
	copy(m.words, m.ckWords)
	if s, ok := any(m.model).(Snapshotter); ok {
		s.Restore()
	}
	return true
}

// corruptCell damages one committed bit (zero value, i.e. cleared) to
// model a transient memory fault; Rollback repairs it.
func (m *BitMem) corruptCell(addr int) {
	if addr >= 0 && addr < m.nbits {
		m.words[addr>>6] &^= 1 << (uint(addr) & 63)
	}
}

// ForAll runs a phase in which only processors with index < active
// participate; the rest idle.
func (m *BitMem) ForAll(active int, body func(c *BitCtx)) {
	m.Phase(func(c *BitCtx) {
		if c.proc < active {
			body(c)
		}
	})
}

// bitBuf is the reusable scratch of the bit memory's sharded phase
// commit — memBuf with a packed write column and word-space sharding.
type bitBuf struct {
	// Pass-1 buckets, indexed [chunk*numShards + shard]. wPacked holds
	// addr<<1 | bit.
	rAddr, rProc   [][]int32
	wPacked, wProc [][]int32
	// Per-chunk local-cost maxima.
	mOp, mRW []int64
	// Per-shard contention maxima and smallest violating cell (−1 = none).
	kr, kw []int64
	viol   []int32
	// Per-bit contention scratch, zeroed via the touched lists.
	count, last []int32
	touched     [][]int32
}

// ensure sizes the scratch and returns the word-space sharding and the
// number of pass-1 merge chunks.
func (b *bitBuf) ensure(nbits, nwords, workers, p int) (sh sched.Sharding, nm int) {
	nm = sched.NumBlocks(workers, p)
	sh = sched.NewSharding(nwords, workers)
	if nb := nm * sh.N; len(b.rAddr) < nb {
		b.rAddr = growSlices(b.rAddr, nb)
		b.rProc = growSlices(b.rProc, nb)
		b.wPacked = growSlices(b.wPacked, nb) //lint:bitaddr-ok pool growth of the outer column-of-columns; packed elements only enter via the staged appends below
		b.wProc = growSlices(b.wProc, nb)
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
	if len(b.count) < nbits {
		b.count = make([]int32, nbits) //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
		b.last = make([]int32, nbits)  //lint:hotpathalloc-ok amortized scratch growth to the high-water mark; steady-state commits do not allocate
	}
	return sh, nm
}

// commit is Mem.commit for the packed representation: the same barrier
// selection, two parallel passes, contention rules, violation selection
// and injector protocol, with requests bucketed by the shard of their
// *word* (addr>>6) so the apply and scratch accesses of different shards
// touch disjoint words.
func (m *BitMem) commit(workers int) PhaseStatus {
	if m.backend != nil || workers <= 1 {
		return m.commitBackend()
	}
	ctxs := m.ctxs
	b := &m.cb
	sh, nm := b.ensure(m.nbits, len(m.words), workers, len(ctxs))
	ns := sh.N

	// Pass 1: per-chunk cost maxima + requests bucketed by word shard.
	sched.Blocks(workers, len(ctxs), func(w, lo, hi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
		var mOp, mRW int64
		base := w * ns
		for i := lo; i < hi; i++ {
			c := ctxs[i]
			mOp = max(mOp, c.ops)
			mRW = max(mRW, c.reads, c.wrs)
			proc := int32(i)
			for _, a := range c.readAddrs {
				k := base + sh.Shard(a>>6)
				b.rAddr[k] = append(b.rAddr[k], a)
				b.rProc[k] = append(b.rProc[k], proc)
			}
			for _, pk := range c.writes {
				k := base + sh.Shard((pk>>1)>>6)
				b.wPacked[k] = append(b.wPacked[k], pk)
				b.wProc[k] = append(b.wProc[k], proc)
			}
		}
		b.mOp[w], b.mRW[w] = mOp, mRW
	})

	// Pass 2: per-shard contention counting and violation detection,
	// exactly memBuf's rules over bit addresses.
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
				for j, pk := range b.wPacked[k] {
					a := pk >> 1
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
		switch v := m.consultInjector(m.nbits); v.Class {
		case FaultPermanent:
			m.recordPermanent(m.model.Prefix(), m.model.Violation(), v)
			m.finish(workers, nm, ns, false)
			return PhaseAborted
		case FaultTransient:
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

// commitBackend is BitMem's column barrier: Mem.commitBackend for the
// packed representation, serving both the serial commit (one worker, no
// backend) and the backend commit. Write columns are packed
// (addr<<1 | bit, Packed set for a backend) and the apply unpacks them
// per active processor in ascending order — the same last-writer-wins
// winner at every bit as the sharded word-space replay.
func (m *BitMem) commitBackend() PhaseStatus {
	bk := m.backend != nil
	var mOp, mRW int64
	active := m.active[:0]
	reads, writes := m.bkReads[:0], m.bkWrites[:0]
	for i, c := range m.ctxs {
		mOp = max(mOp, c.ops)
		mRW = max(mRW, c.reads, c.wrs)
		if len(c.readAddrs) > 0 || len(c.writes) > 0 {
			active = append(active, int32(i))
		}
		if bk {
			reads = append(reads, c.readAddrs)
			writes = append(writes, c.writes)
		}
	}
	m.active, m.bkReads, m.bkWrites = active, reads, writes //lint:commitpurity-ok column-header scratch pooled by the commit barrier itself; commitBackend is the serial and backend commit entry point
	var st MergeStats
	if bk {
		var err error
		st, err = m.backend.MergeMem(MemMergeReq{
			Phase: m.curPhase, Attempt: m.attempt, Cells: m.nbits, Packed: true,
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
		switch v := m.consultInjector(m.nbits); v.Class { //lint:injectoronce-ok commitBackend IS the commit barrier on the serial and backend paths; one draw per attempt, same as the sharded path
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

// mergeActive is Mem.mergeActive over the packed write columns.
func (m *BitMem) mergeActive() MergeStats {
	g := &m.merger
	g.begin(0, m.nbits)
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
			cols[j] = m.ctxs[i].writes
		}
		g.writes(rest[:n], cols[:n], true)
		rest = rest[n:]
	}
	return g.end()
}

// applyCtxWrites commits the phase's packed writes straight from the
// active processors' contexts in ascending processor order (the column
// barrier's replacement for the word-sharded replay).
func (m *BitMem) applyCtxWrites() {
	for _, i := range m.active {
		for _, pk := range m.ctxs[i].writes {
			m.SetBit(int(pk>>1), pk&1 == 1)
		}
	}
}

// bitPayload renders an observer payload; the constants match what the
// word-valued renderers produce for 0/1 data.
func bitPayload(bit bool) string {
	if bit {
		return "1"
	}
	return "0"
}

// emitRequests renders the phase's requests as observer events, grouped
// by ascending processor and in issue order, before the writes apply.
func (m *BitMem) emitRequests() {
	for i, c := range m.ctxs {
		for _, a := range c.readAddrs {
			m.observeRequest(Request{Proc: i, Kind: KindRead, Addr: a,
				Payload: bitPayload(m.words[a>>6]>>(uint32(a)&63)&1 == 1)})
		}
		for _, pk := range c.writes {
			m.observeRequest(Request{Proc: i, Kind: KindWrite, Addr: pk >> 1,
				Payload: bitPayload(pk&1 == 1)})
		}
	}
}

// finish applies the phase's writes (unless aborted) and zeroes the
// scratch, in parallel over word shards. Buckets hold requests in
// ascending processor order and replay in chunk order, so the winner at
// each bit is the final write of the highest-numbered processor — the
// same last-writer-wins outcome as the word-valued engine.
func (m *BitMem) finish(workers, nm, ns int, applyWrites bool) {
	b := &m.cb
	sched.Blocks(workers, ns, func(_, slo, shi int) { //lint:hotpathalloc-ok per-commit worker closure: one fixed-size capture per fan-out
		for s := slo; s < shi; s++ {
			for w := 0; w < nm; w++ {
				k := w*ns + s
				if applyWrites {
					for _, pk := range b.wPacked[k] {
						a := pk >> 1
						if pk&1 == 1 {
							m.words[a>>6] |= 1 << (uint32(a) & 63)
						} else {
							m.words[a>>6] &^= 1 << (uint32(a) & 63)
						}
					}
				}
				b.rAddr[k] = b.rAddr[k][:0]
				b.rProc[k] = b.rProc[k][:0]
				b.wPacked[k] = b.wPacked[k][:0]
				b.wProc[k] = b.wProc[k][:0]
			}
			for _, a := range b.touched[s] {
				b.count[a] = 0
				b.last[a] = 0
			}
			b.touched[s] = b.touched[s][:0]
		}
	})
}
