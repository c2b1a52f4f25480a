package engine

import "repro/internal/cost"

// BitModel is the adapter contract of a bit-valued shared-memory
// machine: the model's naming, cost rule, error prefix and violation
// sentinel. Write commit is last-writer-wins by definition (there is no
// payload to merge), and observer payloads render as "0"/"1" — matching
// the word-valued renderers on Boolean data, which is what makes the
// bit-packed and word-valued event streams comparable. It is also the
// part of a MemModel the shared engine itself reads.
type BitModel interface {
	Model
	// Prefix is the package error prefix ("qsm", …).
	Prefix() string
	// Violation is the package's sentinel error wrapping memory-access-
	// rule violations.
	Violation() error
}

// maxBitCells bounds the bit-address space so a packed write entry fits
// an int32.
const maxBitCells = 1 << 30

// PackWrite is the packed-write codec, with unpackWrite and EntryAddr its
// only implementation: a write of bit to cell addr is one int32 entry,
// the address shifted up by one over the bit. BitMem's write columns, and
// a Packed MemMergeReq's, hold these entries.
func PackWrite(addr int, bit bool) int32 {
	e := int32(addr) << 1
	if bit {
		e |= 1
	}
	return e
}

func unpackWrite(e int32) (addr int32, bit uint32) { return e >> 1, uint32(e) & 1 }

// EntryAddr returns the cell of a request-column entry: a packed write
// entry's, or a plain entry itself.
func EntryAddr(e int32, packed bool) int32 {
	if packed {
		e, _ = unpackWrite(e)
	}
	return e
}

// BitMem is the shared-memory engine over a packed-bit store for Boolean
// workloads (Parity, OR): one bit per cell instead of one V per cell, 64
// cells to a machine word. The phase lifecycle, contention accounting,
// violation detection, fault-injection points and observer emission are
// the shared engine's, as in Mem — a Boolean algorithm run on a BitMem
// machine produces the same cost report and the same event stream as the
// equivalent word-valued run. Only the storage and the codec differ:
// write columns hold PackWrite entries, the apply sets bits, and a
// checkpoint over n bits copies n/64 words. Adapters embed it exactly
// like Mem.
type BitMem struct {
	shared[uint64, BitCtx]
}

// InitBits prepares the engine for a machine with the given model,
// parameters, input size and initial (zero-valued) memory size in bits.
func (m *BitMem) InitBits(model BitModel, params cost.Params, n, cells int) error {
	m.init(m, model, 6, params, n, cells)
	return m.Err()
}

// Words returns the live packed words for adapter-side snapshots; bit i
// of the memory is words[i/64] >> (i%64) & 1.
func (m *BitMem) Words() []uint64 { return m.mem } //lint:colescape-ok documented borrow point: the live word image; callers are policed at their use sites

// Bit reads cell addr outside of any phase (host-side, uncharged);
// callers validate the address.
func (m *BitMem) Bit(addr int) bool {
	return m.mem[addr>>6]>>(uint(addr)&63)&1 == 1
}

// SetBit stores cell addr outside of any phase (input loading,
// uncharged); callers validate the address.
func (m *BitMem) SetBit(addr int, v bool) {
	if v {
		m.mem[addr>>6] |= 1 << (uint(addr) & 63)
	} else {
		m.mem[addr>>6] &^= 1 << (uint(addr) & 63)
	}
}

// BitCtx is the processor handle available inside a phase of a
// bit-valued machine: a cursor (see cursor) with Boolean reads and
// packed writes.
type BitCtx struct {
	cursor[uint64]
}

// Read returns the bit as of the start of the phase and charges one
// shared-memory read. The model discipline of MemCtx.Read applies
// unchanged.
func (c *BitCtx) Read(addr int) bool {
	if addr < 0 || addr >= c.m.cells {
		c.failf("read out of range: cell %d of %d", addr, c.m.cells)
		return false
	}
	c.reads++
	c.readAddrs = append(c.readAddrs, int32(addr))
	return c.m.mem[addr>>6]>>(uint(addr)&63)&1 == 1
}

// ReadWord reads the k ≤ 64 consecutive bits [addr, addr+k) in one call,
// charging k reads and staging one run, and returns them packed with bit
// addr in the low position. It records exactly the request sequence of k
// per-cell reads at ascending addresses.
func (c *BitCtx) ReadWord(addr, k int) uint64 {
	if k < 0 || k > 64 || addr < 0 || addr+k > c.m.cells {
		c.failf("read word out of range: cells [%d,%d) of %d", addr, addr+k, c.m.cells)
		return 0
	}
	c.reads += int64(k)
	c.readAddrs, c.runs = appendRun(c.readAddrs, int32(addr), k), c.runs || k > 1
	lo := uint(addr) & 63
	w := c.m.mem[addr>>6] >> lo
	if rest := 64 - int(lo); k > rest {
		w |= c.m.mem[(addr>>6)+1] << uint(rest)
	}
	if k < 64 {
		w &= 1<<uint(k) - 1
	}
	return w
}

// Write queues a write of bit to the cell, committing last-writer-wins
// at the phase barrier, and charges one write.
func (c *BitCtx) Write(addr int, bit bool) {
	if addr < 0 || addr >= c.m.cells {
		c.failf("write out of range: cell %d of %d", addr, c.m.cells)
		return
	}
	c.wrs++
	c.writes = append(c.writes, PackWrite(addr, bit))
}

// apply commits the phase's packed writes straight from the lane's write
// column: ascending processor order, each processor's writes in issue
// order, so each bit's winner is the final write of the highest-numbered
// processor — the word-valued engine's outcome.
func (m *BitMem) apply() {
	for _, pk := range m.lane.c.writes {
		a, bit := unpackWrite(pk)
		m.SetBit(int(a), bit == 1)
	}
}

// bitRender renders a recorded bit as an observer payload, "0" or "1",
// matching what the word-valued renderers produce for 0/1 data.
type bitRender struct{}

func (bitRender) Render(b uint8) string { return "01"[b&1 : b&1+1] }

// record hands l the phase before the writes apply: the lane's columns as
// staged, and one recorded bit per read cell.
func (m *BitMem) record(l *EventLog) {
	vals := recordLane[uint64, BitCtx, uint8](l, &m.Core, &m.lane, bitRender{}, KindWrite, true)
	reads, j := m.lane.c.readAddrs, 0
	for i := 0; i < len(reads); {
		a, n, next := Run(reads, i)
		for ; n > 0; a, n, j = a+1, n-1, j+1 {
			vals[j] = uint8(m.mem[a>>6] >> (uint32(a) & 63) & 1)
		}
		i = next
	}
}

// corrupt damages one committed bit (zero value, i.e. cleared) to model
// a transient memory fault; Rollback repairs it.
func (m *BitMem) corrupt(v Verdict) {
	if v.Addr >= 0 && v.Addr < m.cells {
		m.SetBit(v.Addr, false)
	}
}
