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
// The column barrier counts contention over the packed write columns
// (addr<<1 | bit) of the request lanes with MemMerger and applies them
// lane by lane, in ascending processor order.
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

	// lanes holds one request lane per dispatch chunk, as in Mem.
	lanes []*bitLane
	// ckWords is the word-level memory snapshot of the last Checkpoint.
	ckWords []uint64
	// Column-barrier scratch, as in Mem: the in-process contention
	// counter, and the column-of-columns headers handed to an attached
	// Backend (the columns themselves are borrowed from the lanes).
	merger            MemMerger
	bkReads, bkWrites [][]int32
}

// bitLane is one dispatch chunk's request storage, as memLane is Mem's.
type bitLane struct {
	c BitCtx
	laneLog
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
// Word capacity grows geometrically, as in Mem.Grow; slices previously
// returned by Words are invalidated.
func (m *BitMem) Grow(size int) error {
	if size > maxBitCells {
		return fmt.Errorf("%s: bit memory of %d cells exceeds the %d-cell address space",
			m.model.Prefix(), size, maxBitCells)
	}
	if size <= m.nbits {
		return nil
	}
	m.nbits = size
	old, nw := len(m.words), (size+63)/64
	switch {
	case nw <= old:
	case nw > cap(m.words):
		grown := make([]uint64, nw, max(nw, 2*cap(m.words)))
		copy(grown, m.words)
		m.words = grown
	default:
		m.words = m.words[:nw]
		clear(m.words[old:])
	}
	return nil
}

// BitCtx is the processor handle available inside a phase of a
// bit-valued machine. Like MemCtx it is a cursor, valid only during one
// processor's body call.
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

// begin points the cursor at processor proc, as MemCtx.begin does.
func (c *BitCtx) begin(proc int) {
	c.proc = proc
	c.reads, c.wrs, c.ops = 0, 0, 0
	c.fail = nil
}

// clearCols empties the lane's columns at the start of a chunk.
func (c *BitCtx) clearCols() {
	c.readAddrs = c.readAddrs[:0]
	c.writes = c.writes[:0]
}

// run executes the bodies of processors [lo, hi) on the lane's cursor,
// as memLane.run does.
func (l *bitLane) run(lo, hi int, body func(c *BitCtx)) (int32, error) {
	c := &l.c
	c.clearCols()
	l.reset()
	var nf int32
	var first error
	for i := lo; i < hi; i++ {
		if c.m.CrashedProc(i) {
			continue
		}
		r0, w0 := len(c.readAddrs), len(c.writes)
		c.begin(i)
		body(c)
		if c.fail != nil {
			if first == nil {
				first = c.fail
			}
			nf++
			continue
		}
		l.note(i, c.ops, max(c.reads, c.wrs), r0, len(c.readAddrs), w0, len(c.writes))
	}
	return nf, first //lint:colescape-ok first is the earliest processor failure, a fresh error from failf; it does not alias pooled storage
}

// Phase runs one bulk-synchronous phase over the bit memory; the
// lifecycle is identical to Mem.Phase.
func (m *BitMem) Phase(body func(c *BitCtx)) { m.ForAll(m.P(), body) }

// ForAll runs a phase in which only processors with index < active
// participate; processors ≥ active are not dispatched, as in Mem.ForAll.
func (m *BitMem) ForAll(active int, body func(c *BitCtx)) {
	if m.Err() != nil {
		return
	}
	n := min(max(active, 0), m.P())
	if m.InjectorActive() {
		m.Checkpoint()
	}
	m.lanes = useLanes(m.lanes, sched.NumBlocks(m.Workers(), n), func() *bitLane {
		return &bitLane{c: BitCtx{m: m}}
	})
	m.RunPhase(m.Workers(), n, func(k, lo, hi int) (int32, error) {
		return m.lanes[k].run(lo, hi, body)
	}, m.commit)
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

// commit is BitMem's column barrier: Mem.commit for the packed
// representation. Write columns are packed (addr<<1 | bit, Packed set
// for a backend) and the apply unpacks them lane by lane in ascending
// processor order, so each bit's last-writer-wins winner is the final
// write of the highest-numbered processor — the word-valued engine's
// outcome.
func (m *BitMem) commit() PhaseStatus {
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
				writes[s.proc] = l.c.writes[s.w0:s.w1]
			}
		}
		m.bkReads, m.bkWrites = reads, writes
		var err error
		st, err = m.backend.MergeMem(MemMergeReq{
			Phase: m.curPhase, Attempt: m.attempt, Cells: m.nbits, Packed: true,
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
		switch v := m.consultInjector(m.nbits); v.Class {
		case FaultPermanent:
			m.recordPermanent(m.model.Prefix(), m.model.Violation(), v)
			return PhaseAborted
		case FaultTransient:
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

// mergeLanes is Mem.mergeLanes over the packed write columns.
func (m *BitMem) mergeLanes() MergeStats {
	g := &m.merger
	g.begin(0, m.nbits)
	for _, l := range m.lanes {
		countLane(g, l.spans, l.c.readAddrs, false, true)
	}
	for _, l := range m.lanes {
		countLane(g, l.spans, l.c.writes, true, true)
	}
	return g.end()
}

// applyLaneWrites commits the phase's packed writes straight from the
// lanes' write columns in lane order: ascending processor order, each
// processor's writes in issue order.
func (m *BitMem) applyLaneWrites() {
	for _, l := range m.lanes {
		for _, pk := range l.c.writes {
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
	for _, l := range m.lanes {
		c := &l.c
		for _, s := range l.spans {
			for _, a := range c.readAddrs[s.r0:s.r1] {
				m.observeRequest(Request{Proc: int(s.proc), Kind: KindRead, Addr: a,
					Payload: bitPayload(m.words[a>>6]>>(uint32(a)&63)&1 == 1)})
			}
			for _, pk := range c.writes[s.w0:s.w1] {
				m.observeRequest(Request{Proc: int(s.proc), Kind: KindWrite, Addr: pk >> 1,
					Payload: bitPayload(pk&1 == 1)})
			}
		}
	}
}
