// Package prefix implements parallel prefix sums — the workhorse substrate
// for the deterministic compaction, load-balancing and rounds algorithms of
// the paper — on the QSM family and on the BSP.
//
// The shared-memory implementation is a k-ary up-sweep/down-sweep tree. With
// fan-in k it runs in Θ(log n / log k) phases, each of cost O(g·k) on the
// QSM/s-QSM (all reads and writes are to distinct cells, so contention is
// 1). Choosing k = ⌈n/p⌉ yields a p-processor algorithm that computes in
// rounds with Θ(log n / log(n/p)) rounds — the upper bound that makes the
// OR/Parity rows of the rounds table of the paper tight.
//
// The BSP implementation block-distributes the input, reduces local blocks,
// runs a k-ary tree over component partial sums via messages, and locally
// expands: O(log p / log k) supersteps around the tree plus O(n/p) local
// work.
package prefix

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/qsm"
)

// MaxFanin bounds per-node buffering in the QSM down-sweep.
const MaxFanin = 64

// RunQSM computes inclusive prefix sums of the n cells starting at base on
// the shared-memory machine m, using a k-ary tree with the given fan-in
// (2 ≤ fanin ≤ MaxFanin). The result is written to n fresh cells whose base
// address is returned. Works for any processor count: when a tree level has
// more nodes than processors, each processor handles a strided share and is
// charged the extra reads/writes. The input cells are not modified.
func RunQSM(m *qsm.Machine, base, n, fanin int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("prefix: n must be ≥ 1, got %d", n)
	}
	if fanin < 2 || fanin > MaxFanin {
		return 0, fmt.Errorf("prefix: fan-in %d outside [2,%d]", fanin, MaxFanin)
	}
	if base < 0 || base+n > m.MemSize() {
		return 0, fmt.Errorf("prefix: input [%d,%d) outside memory of %d cells",
			base, base+n, m.MemSize())
	}
	// Level widths: level 0 is the input (width n); each level above packs
	// fanin children per node.
	widths := []int{n}
	for widths[len(widths)-1] > 1 {
		w := widths[len(widths)-1]
		widths = append(widths, (w+fanin-1)/fanin)
	}
	nLevels := len(widths)

	// Fresh memory: subtree sums for levels 1..top, an offset array per
	// level, and the output. (offset[ℓ][j] = sum of all inputs strictly
	// before node j's subtree.)
	sumBase := make([]int, nLevels)
	sumBase[0] = base
	next := m.MemSize()
	for h := 1; h < nLevels; h++ {
		sumBase[h] = next
		next += widths[h]
	}
	offBase := make([]int, nLevels)
	for h := 0; h < nLevels; h++ {
		offBase[h] = next
		next += widths[h]
	}
	out := next
	next += n
	m.Grow(next)

	// When a level has more nodes than processors, each processor handles a
	// strided set of nodes within the phase (raising its m_rw accordingly —
	// exactly the p-processor cost the model charges). When it has fewer,
	// only the processors that own a node are dispatched.
	strided := func(width int, node func(c *qsm.Ctx, j int)) {
		p := m.P()
		m.ForAll(width, func(c *qsm.Ctx) {
			for j := c.Proc(); j < width; j += p {
				node(c, j)
			}
		})
	}

	// Up-sweep: the processor owning node j sums its ≤ fanin children.
	for h := 1; h < nLevels; h++ {
		h := h
		childW := widths[h-1]
		strided(widths[h], func(c *qsm.Ctx, j int) {
			// Children are contiguous: one block read per node.
			cnt := min(fanin, childW-j*fanin)
			var s int64
			for _, v := range c.ReadBlock(sumBase[h-1]+j*fanin, cnt) {
				s += v
				c.Op(1)
			}
			c.Write(sumBase[h]+j, s)
		})
	}

	// Root offset is 0.
	top := nLevels - 1
	m.ForAll(1, func(c *qsm.Ctx) {
		c.Write(offBase[top], 0)
	})

	// Down-sweep: the processor owning parent node j reads its offset and
	// its children's sums, and writes each child's offset.
	for h := top; h >= 1; h-- {
		h := h
		childW := widths[h-1]
		strided(widths[h], func(c *qsm.Ctx, j int) {
			off := c.Read(offBase[h] + j)
			cnt := min(fanin, childW-j*fanin)
			kids := c.ReadBlock(sumBase[h-1]+j*fanin, cnt)
			// The children's offsets are a contiguous run: accumulate into
			// a stack buffer and write the whole run in one batch.
			var offs [MaxFanin]int64
			run := off
			for i := 0; i < cnt; i++ {
				offs[i] = run
				c.Op(1)
				run += kids[i]
			}
			c.WriteBlock(offBase[h-1]+j*fanin, offs[:cnt])
		})
	}

	// Final phase: leaf j's inclusive prefix = its offset + its value.
	strided(widths[0], func(c *qsm.Ctx, j int) {
		v := c.Read(base + j)
		o := c.Read(offBase[0] + j)
		c.Op(1)
		c.Write(out+j, o+v)
	})

	return out, m.Err()
}

// RunQSMRounds computes prefix sums with the canonical p-processor rounds
// algorithm: fan-in max(2, ⌈n/p⌉), so that every phase is a round.
func RunQSMRounds(m *qsm.Machine, base, n int) (int, error) {
	k := (n + m.P() - 1) / m.P()
	if k < 2 {
		k = 2
	}
	if k > MaxFanin {
		return 0, fmt.Errorf("prefix: rounds fan-in %d exceeds MaxFanin %d", k, MaxFanin)
	}
	return RunQSM(m, base, n, k)
}

// --- BSP --------------------------------------------------------------------

// bspLayout computes the private-memory layout of RunBSP.
type bspLayout struct {
	maxBlk  int
	nLevels int
	widths  []int
}

func newBSPLayout(n, p, fanin int) bspLayout {
	if fanin < 2 { // a fan-in below 2 would never shrink the tree
		fanin = 2
	}
	widths := []int{p}
	for widths[len(widths)-1] > 1 {
		w := widths[len(widths)-1]
		widths = append(widths, (w+fanin-1)/fanin)
	}
	return bspLayout{
		maxBlk:  (n + p - 1) / p,
		nLevels: len(widths),
		widths:  widths,
	}
}

// sumSlot is the private address of a component's level-h subtree sum.
func (l bspLayout) sumSlot(h int) int { return l.maxBlk + h }

// offSlot is the private address of a component's current subtree offset.
func (l bspLayout) offSlot() int { return l.maxBlk + l.nLevels }

// outOff is the private address of the first output cell.
func (l bspLayout) outOff() int { return l.maxBlk + l.nLevels + 1 }

// PrivNeedBSP returns the private memory a BSP machine needs for RunBSP.
func PrivNeedBSP(n, p, fanin int) int {
	l := newBSPLayout(n, p, fanin)
	return l.outOff() + l.maxBlk
}

// RunBSP computes inclusive prefix sums of the block-distributed input on a
// BSP machine: component i holds its block (bsp.BlockRange(n, p, i)) at
// private addresses [0, blockLen). On return, the block's inclusive global
// prefixes are at private addresses [outOff, outOff+blockLen), where outOff
// is the returned offset. Components need PrivNeedBSP(n, p, fanin) private
// cells.
func RunBSP(m *bsp.Machine, n, fanin int) (int, error) {
	if fanin < 2 {
		return 0, fmt.Errorf("prefix: fan-in must be ≥ 2, got %d", fanin)
	}
	if n < 1 {
		return 0, fmt.Errorf("prefix: n must be ≥ 1, got %d", n)
	}
	p := m.P()
	l := newBSPLayout(n, p, fanin)

	// Local reduction into sumSlot(0).
	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		var s int64
		for i := 0; i < hi-lo; i++ {
			s += c.Priv()[i]
			c.Work(1)
		}
		c.Priv()[l.sumSlot(0)] = s
		c.Priv()[l.offSlot()] = 0
	})

	// Up-sweep: at each level children message their subtree sums to the
	// parent, which accumulates into its next level slot.
	for h := 1; h < l.nLevels; h++ {
		h := h
		childW := l.widths[h-1]
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j < childW {
				c.Send(j/fanin, int64(j%fanin), c.Priv()[l.sumSlot(h-1)])
			}
		})
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j >= l.widths[h] {
				return
			}
			var s int64
			for _, msg := range c.Incoming() {
				s += msg.Val
				c.Work(1)
			}
			c.Priv()[l.sumSlot(h)] = s
		})
	}

	// Down-sweep: children re-send their (persisted) level sums; the parent
	// replies with each child's offset; children store it.
	for h := l.nLevels - 1; h >= 1; h-- {
		h := h
		childW := l.widths[h-1]
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j < childW {
				c.Send(j/fanin, int64(j%fanin), c.Priv()[l.sumSlot(h-1)])
			}
		})
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j >= l.widths[h] {
				return
			}
			run := c.Priv()[l.offSlot()]
			for _, msg := range c.Incoming() {
				// Incoming arrives sorted by sender id, i.e. by child rank.
				child := j*fanin + int(msg.Tag)
				c.Send(child, 0, run)
				run += msg.Val
				c.Work(1)
			}
		})
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j >= childW {
				return
			}
			for _, msg := range c.Incoming() {
				c.Priv()[l.offSlot()] = msg.Val
			}
		})
	}

	// Local expansion.
	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		run := c.Priv()[l.offSlot()]
		for i := 0; i < hi-lo; i++ {
			run += c.Priv()[i]
			c.Priv()[l.outOff()+i] = run
			c.Work(1)
		}
	})

	return l.outOff(), m.Err()
}
