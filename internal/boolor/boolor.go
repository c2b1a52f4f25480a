// Package boolor implements the OR upper-bound algorithms of Section 8 of
// MacKenzie & Ramachandran (SPAA 1998):
//
//   - ContentionTree: OR via queued concurrent writes. All holders of a 1 in
//     a group of k cells write 1 to the group's output cell; the phase costs
//     max(g, κ ≤ k) on the QSM, so fan-in k = g shrinks the input by a
//     factor g per O(g)-cost level: O((g/log g)·log n) total — the paper's
//     deterministic QSM upper bound.
//   - ReadTree: a k-ary read-combine tree (OR instead of XOR), giving the
//     O(g·log n) s-QSM bound with fan-in 2 and the Θ(log n / log(n/p))
//     rounds algorithms with fan-in ⌈n/p⌉.
//   - RoundsQSM: the tight Θ(log n / log(gn/p)) QSM rounds algorithm — one
//     block-reduction round, then contention-tree rounds of fan-in g·n/p.
//   - RunBSP: the fan-in-(L/g) component tree, O(L·log n / log(L/g)).
package boolor

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/qsm"
)

// MaxFanin bounds the read-tree fan-in (per-processor buffering); the
// contention tree has no such cap (each processor does one read and at most
// one write regardless of fan-in).
const MaxFanin = 64

// ReadTree computes the OR of the n cells at [base, base+n) with a k-ary
// read-combine tree; returns the address of the 1-cell result. Works for
// any processor count (strided).
func ReadTree(m *qsm.Machine, base, n, fanin int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	if fanin < 2 || fanin > MaxFanin {
		return 0, fmt.Errorf("boolor: fan-in %d outside [2,%d]", fanin, MaxFanin)
	}
	cur, width := base, n
	p := m.P()
	for width > 1 {
		next := m.MemSize()
		nw := (width + fanin - 1) / fanin
		m.Grow(next + nw)
		curL, widthL := cur, width
		m.ForAll(nw, func(c *qsm.Ctx) {
			for j := c.Proc(); j < nw; j += p {
				// Children are contiguous: one block read per node, same
				// request sequence as the per-child loop.
				cnt := min(fanin, widthL-j*fanin)
				var s int64
				for _, v := range c.ReadBlock(curL+j*fanin, cnt) {
					if v != 0 {
						s = 1
					}
					c.Op(1)
				}
				c.Write(next+j, s)
			}
		})
		cur, width = next, nw
	}
	return cur, m.Err()
}

// ReadTreeBool is ReadTree on the bit-packed Boolean machine: each node
// ORs its children with one ReadWord (any nonzero packed word). The
// request sequence matches ReadTree's, so cost reports and event streams
// are byte-identical to the word-valued run on 0/1 data.
func ReadTreeBool(m *qsm.BoolMachine, base, n, fanin int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	if fanin < 2 || fanin > MaxFanin {
		return 0, fmt.Errorf("boolor: fan-in %d outside [2,%d]", fanin, MaxFanin)
	}
	cur, width := base, n
	p := m.P()
	for width > 1 {
		next := m.MemSize()
		nw := (width + fanin - 1) / fanin
		m.Grow(next + nw)
		curL, widthL := cur, width
		m.ForAll(nw, func(c *qsm.BoolCtx) {
			for j := c.Proc(); j < nw; j += p {
				cnt := min(fanin, widthL-j*fanin)
				w := c.ReadWord(curL+j*fanin, cnt)
				c.Op(cnt)
				c.Write(next+j, w != 0)
			}
		})
		cur, width = next, nw
	}
	return cur, m.Err()
}

// ContentionTree computes the OR of the n cells at [base, base+n) using
// queued concurrent writes: per level, the holder of each nonzero cell
// writes 1 into its group cell. Two phases per level (read, then write);
// write contention ≤ fanin. Any fan-in ≥ 2 and any processor count works.
func ContentionTree(m *qsm.Machine, base, n, fanin int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	if fanin < 2 {
		return 0, fmt.Errorf("boolor: fan-in must be ≥ 2, got %d", fanin)
	}
	cur, width := base, n
	p := m.P()
	for width > 1 {
		next := m.MemSize()
		nw := (width + fanin - 1) / fanin
		m.Grow(next + nw)
		curL, widthL := cur, width
		// Stage the values read in phase A for use in phase B — the
		// processors' private memory across the two phases.
		vals := make([]int64, widthL)
		m.ForAll(widthL, func(c *qsm.Ctx) {
			for j := c.Proc(); j < widthL; j += p {
				vals[j] = c.Read(curL + j)
			}
		})
		m.ForAll(widthL, func(c *qsm.Ctx) {
			for j := c.Proc(); j < widthL; j += p {
				if vals[j] != 0 {
					c.Write(next+j/fanin, 1)
				}
			}
		})
		cur, width = next, nw
	}
	return cur, m.Err()
}

// ContentionTreeDegraded is ContentionTree for machines running in
// degraded fault mode: before every phase the strided work is
// re-partitioned over the surviving processors, so crashes shift work to
// survivors instead of silently dropping cells (a dropped read would turn
// a 1-bearing cell into a silent 0 — the failure mode degradation
// exists to prevent). Each phase dispatches only up to the highest
// survivor that owns a cell (see qsm.Machine.SurvivorRanks). Fails with
// a diagnosable error once every processor has crashed.
func ContentionTreeDegraded(m *qsm.Machine, base, n, fanin int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	if fanin < 2 {
		return 0, fmt.Errorf("boolor: fan-in must be ≥ 2, got %d", fanin)
	}
	cur, width := base, n
	for width > 1 {
		next := m.MemSize()
		nw := (width + fanin - 1) / fanin
		m.Grow(next + nw)
		curL, widthL := cur, width
		vals := make([]int64, widthL)
		// Ranks are recomputed before each of the two phases: a crash at
		// the read barrier must not leave its slice unwritten in the
		// write phase. vals is indexed by cell, not processor, so the two
		// phases may stride differently.
		survA, rankA, activeA := m.SurvivorRanks(widthL)
		nsA := len(survA)
		if nsA == 0 {
			return 0, fmt.Errorf("boolor: all %d processors crashed", m.P())
		}
		m.ForAll(activeA, func(c *qsm.Ctx) {
			r := rankA[c.Proc()]
			if r < 0 {
				return
			}
			for j := r; j < widthL; j += nsA {
				vals[j] = c.Read(curL + j)
			}
		})
		survB, rankB, activeB := m.SurvivorRanks(widthL)
		nsB := len(survB)
		if nsB == 0 {
			return 0, fmt.Errorf("boolor: all %d processors crashed", m.P())
		}
		m.ForAll(activeB, func(c *qsm.Ctx) {
			r := rankB[c.Proc()]
			if r < 0 {
				return
			}
			for j := r; j < widthL; j += nsB {
				if vals[j] != 0 {
					c.Write(next+j/fanin, 1)
				}
			}
		})
		if m.Err() != nil {
			return 0, m.Err()
		}
		cur, width = next, nw
	}
	return cur, m.Err()
}

// RoundsSQSM is the p-processor rounds algorithm for the s-QSM (and, by the
// same cost accounting, the QSM): a read tree with fan-in max(2, ⌈n/p⌉),
// achieving the tight Θ(log n / log(n/p)) round bound.
func RoundsSQSM(m *qsm.Machine, base, n int) (int, error) {
	k := (n + m.P() - 1) / m.P()
	if k < 2 {
		k = 2
	}
	if k > MaxFanin {
		return 0, fmt.Errorf("boolor: rounds fan-in %d exceeds MaxFanin %d", k, MaxFanin)
	}
	return ReadTree(m, base, n, k)
}

// RoundsQSM is the tight Θ(log n / log(gn/p)) QSM rounds algorithm: one
// block-reduction round collapses n cells to p, then contention-tree rounds
// of fan-in g·⌈n/p⌉ finish the job within the O(gn/p) round budget.
func RoundsQSM(m *qsm.Machine, base, n int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	p := m.P()
	blk := (n + p - 1) / p

	// Round 1: processor i ORs its block of ⌈n/p⌉ cells (cost g·n/p — a
	// round by definition).
	mid := m.MemSize()
	width := p
	if n < p {
		width = n
	}
	m.Grow(mid + width)
	m.ForAll((n+blk-1)/blk, func(c *qsm.Ctx) {
		i := c.Proc()
		lo := i * blk
		if lo >= n {
			return
		}
		hi := lo + blk
		if hi > n {
			hi = n
		}
		// The block is contiguous: one batched read for the whole
		// reduction slice.
		var s int64
		for _, v := range c.ReadBlock(base+lo, hi-lo) {
			if v != 0 {
				s = 1
			}
			c.Op(1)
		}
		c.Write(mid+i, s)
	})

	// Contention-tree rounds with fan-in g·⌈n/p⌉ ≥ 2: write contention per
	// round is ≤ g·n/p ≤ the round budget.
	fanin := int(m.G()) * blk
	if fanin < 2 {
		fanin = 2
	}
	return ContentionTree(m, mid, width, fanin)
}

// RunBSP computes the OR of the block-distributed input and returns it.
// The component tree uses the given fan-in; max(2, L/g) realises the
// O(L·log q / log(L/g)) bound. Components need PrivNeedBSP(n, p) cells.
func RunBSP(m *bsp.Machine, n, fanin int) (int64, error) {
	if fanin < 2 {
		return 0, fmt.Errorf("boolor: fan-in must be ≥ 2, got %d", fanin)
	}
	if n < 1 {
		return 0, fmt.Errorf("boolor: n must be ≥ 1, got %d", n)
	}
	p := m.P()
	slot := (n + p - 1) / p

	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		var s int64
		for i := 0; i < hi-lo; i++ {
			if c.Priv()[i] != 0 {
				s = 1
			}
			c.Work(1)
		}
		c.Priv()[slot] = s
	})

	width := p
	for width > 1 {
		nw := (width + fanin - 1) / fanin
		w := width
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			// Only holders of a 1 send — the BSP analogue of the
			// contention trick keeps the h-relation at most fan-in.
			if j < w && c.Priv()[slot] != 0 {
				c.Send(j/fanin, 0, 1)
			}
		})
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j >= nw {
				return
			}
			var s int64
			if len(c.Incoming()) > 0 {
				s = 1
				c.Work(1)
			}
			c.Priv()[slot] = s
		})
		width = nw
	}
	if m.Err() != nil {
		return 0, m.Err()
	}
	return m.Peek(0, slot), nil
}

// PrivNeedBSP returns the private memory RunBSP requires per component.
func PrivNeedBSP(n, p int) int { return (n+p-1)/p + 1 }

func checkInput(memSize, base, n int) error {
	if n < 1 {
		return fmt.Errorf("boolor: n must be ≥ 1, got %d", n)
	}
	if base < 0 || base+n > memSize {
		return fmt.Errorf("boolor: input [%d,%d) outside memory of %d cells",
			base, base+n, memSize)
	}
	return nil
}
