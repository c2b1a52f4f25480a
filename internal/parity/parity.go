// Package parity implements the Parity upper-bound algorithms of Section 8
// of MacKenzie & Ramachandran (SPAA 1998) on the simulated machines:
//
//   - TreeQSM: a k-ary XOR tree. With fan-in 2 and p = n it gives the tight
//     Θ(g·log n) s-QSM bound; with fan-in ⌈n/p⌉ it is the p-processor rounds
//     algorithm with Θ(log n / log(n/p)) rounds.
//   - GadgetQSM: the contention-gadget tree emulating the unbounded fan-in
//     parity circuit. A group of m bits is resolved in O(1) phases by 2^m·m
//     "checker" processors: checker (a,i) reads bit i and kills assignment a
//     if it mismatches; the surviving assignment's parity is written out.
//     Per level the phase cost is max(g, 2^m, m) on the QSM — choosing
//     m = log g gives the paper's O(g·log n / log log g) QSM bound; on the
//     CRQW (unit-time concurrent reads) read contention is free, so m = g
//     gives the matching Θ(g·log n / log g) bound of Theorem 3.1.
//   - RunBSP: a fan-in-(L/g) tree over components after local reduction,
//     realising the Θ(L·log q / log(L/g)) BSP bound.
//
// Parity lower bounds transfer to list ranking and sorting by the paper's
// size-preserving reductions; see package sortrank.
package parity

import (
	"fmt"
	"math/bits"

	"repro/internal/bsp"
	"repro/internal/qsm"
)

// MaxFanin bounds the tree fan-in (per-processor buffering).
const MaxFanin = 64

// TreeQSM computes the parity of the n bits at [base, base+n) with a k-ary
// XOR tree and returns the address of the 1-cell result. Any processor
// count works: oversubscribed levels are strided (raising the charged m_rw).
func TreeQSM(m *qsm.Machine, base, n, fanin int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	if fanin < 2 || fanin > MaxFanin {
		return 0, fmt.Errorf("parity: fan-in %d outside [2,%d]", fanin, MaxFanin)
	}
	cur, width := base, n
	p := m.P()
	for width > 1 {
		next := m.MemSize()
		nw := (width + fanin - 1) / fanin
		m.Grow(next + nw)
		curL, widthL := cur, width
		m.Phase(func(c *qsm.Ctx) {
			for j := c.Proc(); j < nw; j += p {
				// A node's children are contiguous, so one block read
				// replaces the per-child read loop: same addresses, same
				// order, same charges.
				cnt := min(fanin, widthL-j*fanin)
				var s int64
				for _, v := range c.ReadBlock(curL+j*fanin, cnt) {
					s ^= v & 1
					c.Op(1)
				}
				c.Write(next+j, s)
			}
		})
		cur, width = next, nw
	}
	return cur, m.Err()
}

// TreeBool is TreeQSM on the bit-packed Boolean machine: the same k-ary
// XOR tree issuing the same request sequence (each node's children in
// one ReadWord, parity by popcount), so its cost report and event
// stream are byte-identical to TreeQSM's on the same input — at 1 bit
// per cell instead of 64.
func TreeBool(m *qsm.BoolMachine, base, n, fanin int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	if fanin < 2 || fanin > MaxFanin {
		return 0, fmt.Errorf("parity: fan-in %d outside [2,%d]", fanin, MaxFanin)
	}
	cur, width := base, n
	p := m.P()
	for width > 1 {
		next := m.MemSize()
		nw := (width + fanin - 1) / fanin
		m.Grow(next + nw)
		curL, widthL := cur, width
		m.Phase(func(c *qsm.BoolCtx) {
			for j := c.Proc(); j < nw; j += p {
				cnt := min(fanin, widthL-j*fanin)
				w := c.ReadWord(curL+j*fanin, cnt)
				c.Op(cnt)
				c.Write(next+j, bits.OnesCount64(w)&1 == 1)
			}
		})
		cur, width = next, nw
	}
	return cur, m.Err()
}

// TreeQSMDegraded is TreeQSM for machines running in degraded fault mode:
// before every phase the work is re-partitioned over the surviving
// (non-crashed) processors, so a processor crash shifts its tree slice to
// the survivors instead of silently dropping it. The charged m_rw rises
// as survivors take over more work — the natural model-time price of
// degradation. Fails with a diagnosable error if every processor has
// crashed.
func TreeQSMDegraded(m *qsm.Machine, base, n, fanin int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	if fanin < 2 || fanin > MaxFanin {
		return 0, fmt.Errorf("parity: fan-in %d outside [2,%d]", fanin, MaxFanin)
	}
	cur, width := base, n
	for width > 1 {
		rank, ns := survivorRanks(m)
		if ns == 0 {
			return 0, fmt.Errorf("parity: all %d processors crashed", m.P())
		}
		next := m.MemSize()
		nw := (width + fanin - 1) / fanin
		m.Grow(next + nw)
		curL, widthL := cur, width
		m.Phase(func(c *qsm.Ctx) {
			r := rank[c.Proc()]
			if r < 0 {
				return
			}
			for j := r; j < nw; j += ns {
				cnt := min(fanin, widthL-j*fanin)
				var s int64
				for _, v := range c.ReadBlock(curL+j*fanin, cnt) {
					s ^= v & 1
					c.Op(1)
				}
				c.Write(next+j, s)
			}
		})
		if m.Err() != nil {
			return 0, m.Err()
		}
		cur, width = next, nw
	}
	return cur, m.Err()
}

// survivorRanks maps each processor to its dense rank among the
// survivors (−1 for masked processors) and returns the survivor count.
// Degraded runners recompute it before every phase: a crash lands at a
// phase barrier and masks from the next phase on.
func survivorRanks(m *qsm.Machine) ([]int, int) {
	rank := make([]int, m.P())
	ns := 0
	for i := range rank {
		if m.CrashedProc(i) {
			rank[i] = -1
		} else {
			rank[i] = ns
			ns++
		}
	}
	return rank, ns
}

// TreeQSMRounds is the p-processor rounds algorithm: fan-in max(2, ⌈n/p⌉).
func TreeQSMRounds(m *qsm.Machine, base, n int) (int, error) {
	k := (n + m.P() - 1) / m.P()
	if k < 2 {
		k = 2
	}
	if k > MaxFanin {
		return 0, fmt.Errorf("parity: rounds fan-in %d exceeds MaxFanin %d", k, MaxFanin)
	}
	return TreeQSM(m, base, n, k)
}

// GadgetMaxGroupBits bounds the gadget group width m (2^m checker
// assignments are materialised per group).
const GadgetMaxGroupBits = 10

// GadgetQSM computes the parity of the n bits at [base, base+n) using the
// contention-gadget tree with groups of groupBits bits, and returns the
// address of the 1-cell result.
//
// Each level replaces every group of m = groupBits input bits by their
// parity in four phases:
//
//  1. checker (a,i) reads bit i of its group              (read κ = 2^m)
//  2. checker (a,i) writes 1 to kill-cell d_a on mismatch (write κ ≤ m)
//  3. scout a reads d_a                                   (read κ = 1)
//  4. the surviving scout writes parity(a)                (write κ = 1)
//
// The machine needs ⌈n/m⌉·m·2^m processors for the first level. Choose
// m = ⌈log₂ g⌉ on the QSM and m = g (capped) on the CRQW.
func GadgetQSM(m *qsm.Machine, base, n, groupBits int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	// Groups of 1 bit would never shrink the tree, so m ≥ 2.
	if groupBits < 2 || groupBits > GadgetMaxGroupBits {
		return 0, fmt.Errorf("parity: group bits %d outside [2,%d]", groupBits, GadgetMaxGroupBits)
	}
	gb := groupBits
	perGroup := gb << uint(gb) // m·2^m checkers per full group
	needed := ((n + gb - 1) / gb) * perGroup
	if m.P() < needed {
		return 0, fmt.Errorf("parity: gadget needs %d processors for n=%d m=%d, have %d",
			needed, n, gb, m.P())
	}

	// Checker (grp, a, i) of a level with s = groups·2^m scouts is
	// processor i·s + grp·2^m + a, so the scouts (i = 0) are processors
	// [0, s) and phases 3 and 4 dispatch only them.
	//
	// Checker state (the bit each checker read, the kill flag each scout
	// read) is carried across phases in host slices, which model the
	// processors' private memory. They are sized once for the first
	// level; each level dispatches only its groups' processors and clears
	// their entries, so every level starts from zeroed private state.
	readVal := make([]uint8, needed)
	killed := make([]bool, needed/gb)
	cur, width := base, n
	mask := 1<<uint(gb) - 1
	for width > 1 {
		groups := (width + gb - 1) / gb
		scouts := groups << uint(gb)
		active := gb * scouts
		clear(readVal[:active])
		clear(killed[:scouts])
		// Fresh cells: kill cells (groups · 2^m), output (groups).
		kills := m.MemSize()
		out := kills + scouts
		m.Grow(out + groups)

		curL, widthL := cur, width
		// groupSize handles the ragged last group.
		groupSize := func(grp int) int {
			sz := widthL - grp*gb
			if sz > gb {
				sz = gb
			}
			return sz
		}

		// Phase 1+2 are split to respect the no-read-and-write rule per
		// cell set. Processors past the active groups are not dispatched.
		m.ForAll(active, func(c *qsm.Ctx) {
			bit := c.Proc() / scouts
			sa := c.Proc() - bit*scouts
			grp, a := sa>>uint(gb), sa&mask
			sz := groupSize(grp)
			if bit >= sz || a >= 1<<uint(sz) {
				return
			}
			readVal[c.Proc()] = uint8(c.Read(curL+grp*gb+bit) & 1)
		})
		m.ForAll(active, func(c *qsm.Ctx) {
			bit := c.Proc() / scouts
			sa := c.Proc() - bit*scouts
			grp, a := sa>>uint(gb), sa&mask
			sz := groupSize(grp)
			if bit >= sz || a >= 1<<uint(sz) {
				return
			}
			if readVal[c.Proc()] != uint8(a>>uint(bit)&1) {
				c.Write(kills+sa, 1)
			}
		})
		// Phase 3: scout (a, bit 0) reads its kill cell.
		m.ForAll(scouts, func(c *qsm.Ctx) {
			grp, a := c.Proc()>>uint(gb), c.Proc()&mask
			if a >= 1<<uint(groupSize(grp)) {
				return
			}
			killed[c.Proc()] = c.Read(kills+c.Proc()) != 0
		})
		// Phase 4: the surviving scout writes its assignment's parity.
		m.ForAll(scouts, func(c *qsm.Ctx) {
			grp, a := c.Proc()>>uint(gb), c.Proc()&mask
			if a >= 1<<uint(groupSize(grp)) {
				return
			}
			if !killed[c.Proc()] {
				c.Op(1)
				c.Write(out+grp, int64(bits.OnesCount32(uint32(a))&1))
			}
		})
		cur, width = out, groups
		if m.Err() != nil {
			return 0, m.Err()
		}
	}
	return cur, m.Err()
}

// RunBSP computes the parity of the block-distributed input bits and
// returns it (also left in component 0's private slot resultSlot). The
// component tree uses the given fan-in; fan-in max(2, L/g) realises the
// Θ(L·log q / log(L/g)) bound. Components need PrivNeedBSP(n, p) private
// cells.
func RunBSP(m *bsp.Machine, n, fanin int) (int64, error) {
	if fanin < 2 {
		return 0, fmt.Errorf("parity: fan-in must be ≥ 2, got %d", fanin)
	}
	if n < 1 {
		return 0, fmt.Errorf("parity: n must be ≥ 1, got %d", n)
	}
	p := m.P()
	slot := resultSlot(n, p)

	// Local reduction.
	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		var s int64
		for i := 0; i < hi-lo; i++ {
			s ^= c.Priv()[i] & 1
			c.Work(1)
		}
		c.Priv()[slot] = s
	})

	// Tree over components: every holder sends its value to its parent
	// (component j/fanin); parents XOR what arrives. Each value is sent
	// exactly once per level, so the global parity is preserved.
	width := p
	for width > 1 {
		nw := (width + fanin - 1) / fanin
		w := width
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j < w {
				c.Send(j/fanin, int64(j%fanin), c.Priv()[slot])
			}
		})
		m.Superstep(func(c *bsp.Ctx) {
			j := c.Comp()
			if j >= nw {
				return
			}
			var s int64
			for _, msg := range c.Incoming() {
				s ^= msg.Val & 1
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

// resultSlot is the private address RunBSP leaves the result in.
func resultSlot(n, p int) int {
	blk := (n + p - 1) / p
	return blk
}

// PrivNeedBSP returns the private memory RunBSP requires per component.
func PrivNeedBSP(n, p int) int { return resultSlot(n, p) + 1 }

func checkInput(memSize, base, n int) error {
	if n < 1 {
		return fmt.Errorf("parity: n must be ≥ 1, got %d", n)
	}
	if base < 0 || base+n > memSize {
		return fmt.Errorf("parity: input [%d,%d) outside memory of %d cells",
			base, base+n, memSize)
	}
	return nil
}
