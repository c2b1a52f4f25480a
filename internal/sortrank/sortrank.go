// Package sortrank implements the "problems related to parity" of MacKenzie
// & Ramachandran (SPAA 1998): list ranking and sorting, to which the
// paper's Parity lower bounds transfer by simple size-preserving reductions
// (end of Section 3).
//
//   - ListRankQSM: pointer-jumping list ranking on the QSM family. Each of
//     the Θ(log n) iterations is two phases; contention grows as chains
//     collapse (the QSM charges it — which is exactly why queue models make
//     pointer jumping interesting).
//   - ParityToList / ParityViaList: the size-preserving reduction from
//     Parity to list ranking: bits x₁..x_n become the 2(n+1)-node layered
//     list in which node (i,b) represents "the parity of the first i bits
//     is b" and points to (i+1, b⊕x_{i+1}); the end node reached from (0,0)
//     carries the answer. Any list-ranking lower bound therefore implies
//     the paper's Parity bounds and vice versa.
//   - SampleSortBSP: one-round sample sort (regular sampling) on the BSP —
//     the standard communication-efficient BSP sorting algorithm the
//     paper's rounds discussion targets.
package sortrank

import (
	"fmt"
	"sort"

	"repro/internal/bsp"
	"repro/internal/qsm"
)

// ListRankQSM computes list ranks (distance to the tail, which points to
// itself) for the successor array in cells [base, base+n). Returns the base
// of the n-cell rank array. Needs one processor per node (strided
// otherwise).
func ListRankQSM(m *qsm.Machine, base, n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("sortrank: n must be ≥ 1, got %d", n)
	}
	if base < 0 || base+n > m.MemSize() {
		return 0, fmt.Errorf("sortrank: input [%d,%d) outside memory", base, base+n)
	}
	p := m.P()

	// Double-buffered (next, rank) arrays; the input is copied so it stays
	// intact.
	nextA := m.MemSize()
	rankA := nextA + n
	nextB := rankA + n
	rankB := nextB + n
	m.Grow(rankB + n)

	// Init: rank = 0 for the tail, 1 otherwise; next copied.
	m.ForAll(n, func(c *qsm.Ctx) {
		for j := c.Proc(); j < n; j += p {
			nx := c.Read(base + j)
			var r int64
			if int(nx) != j {
				r = 1
			}
			c.Op(1)
			c.Write(nextA+j, nx)
			c.Write(rankA+j, r)
		}
	})

	curN, curR, nxtN, nxtR := nextA, rankA, nextB, rankB
	for span := 1; span < n; span <<= 1 {
		curNL, curRL, nxtNL, nxtRL := curN, curR, nxtN, nxtR
		// Phase A: read own (next, rank).
		nxVal := make([]int64, n)
		rVal := make([]int64, n)
		m.ForAll(n, func(c *qsm.Ctx) {
			for j := c.Proc(); j < n; j += p {
				nxVal[j] = c.Read(curNL + j)
				rVal[j] = c.Read(curRL + j)
			}
		})
		// Phase B: read successor's (next, rank) — addresses depend only on
		// the previous phase — and write the jumped state.
		m.ForAll(n, func(c *qsm.Ctx) {
			for j := c.Proc(); j < n; j += p {
				nx := int(nxVal[j])
				nnx := c.Read(curNL + nx)
				rr := c.Read(curRL + nx)
				c.Op(1)
				if nx == j { // tail: fixed point
					c.Write(nxtNL+j, int64(j))
					c.Write(nxtRL+j, rVal[j])
					continue
				}
				c.Write(nxtNL+j, nnx)
				c.Write(nxtRL+j, rVal[j]+rr)
			}
		})
		curN, curR, nxtN, nxtR = nxtN, nxtR, curN, curR
		if m.Err() != nil {
			return 0, m.Err()
		}
	}
	return curR, m.Err()
}

// --- Parity → list ranking reduction ----------------------------------------

// ParityToList builds the layered list of the size-preserving reduction:
// 2(n+1) nodes, node id 2i+b for layer i ∈ [0,n] and parity bit b. Node
// (i,b) points to (i+1, b⊕bits[i]); the two layer-n nodes are self-loop
// tails. The walk from node 0 = (0,0) ends in tail (n, parity(bits)).
func ParityToList(bits []int64) (next []int64, start int) {
	n := len(bits)
	next = make([]int64, 2*(n+1))
	for i := 0; i < n; i++ {
		x := bits[i] & 1
		for b := int64(0); b < 2; b++ {
			next[2*i+int(b)] = int64(2*(i+1)) + (b ^ x)
		}
	}
	next[2*n] = int64(2 * n)
	next[2*n+1] = int64(2*n + 1)
	return next, 0
}

// ParityViaList computes the parity of the n bits in cells [base, base+n)
// by the reduction: it materialises the layered list in fresh cells, runs
// pointer jumping, and reads off which tail the start node reaches.
// Returns the parity (0 or 1).
func ParityViaList(m *qsm.Machine, base, n int) (int64, error) {
	if n < 1 {
		return 0, fmt.Errorf("sortrank: n must be ≥ 1, got %d", n)
	}
	if base < 0 || base+n > m.MemSize() {
		return 0, fmt.Errorf("sortrank: input [%d,%d) outside memory", base, base+n)
	}
	p := m.P()
	ln := 2 * (n + 1)
	listBase := m.MemSize()
	m.Grow(listBase + ln)

	// Build the list in-model: the processor(s) owning layer i read bit i
	// and write both layer-i successor cells.
	m.ForAll(n, func(c *qsm.Ctx) {
		for i := c.Proc(); i < n; i += p {
			x := c.Read(base+i) & 1
			c.Op(1)
			c.Write(listBase+2*i, int64(2*(i+1))+x)
			c.Write(listBase+2*i+1, int64(2*(i+1))+(1^x))
		}
		// One processor seals the tails.
		if c.Proc() == 0 {
			c.Write(listBase+2*n, int64(2*n))
			c.Write(listBase+2*n+1, int64(2*n+1))
		}
	})

	// Pointer jumping on successors only (no ranks needed): after ⌈log₂⌉
	// iterations every node points at its tail.
	curB := m.MemSize()
	nxtB := curB + ln
	m.Grow(nxtB + ln)
	m.ForAll(ln, func(c *qsm.Ctx) {
		for j := c.Proc(); j < ln; j += p {
			c.Write(curB+j, c.Read(listBase+j))
		}
	})
	cur, nxt := curB, nxtB
	for span := 1; span < ln; span <<= 1 {
		curL, nxtL := cur, nxt
		nxVal := make([]int64, ln)
		m.ForAll(ln, func(c *qsm.Ctx) {
			for j := c.Proc(); j < ln; j += p {
				nxVal[j] = c.Read(curL + j)
			}
		})
		m.ForAll(ln, func(c *qsm.Ctx) {
			for j := c.Proc(); j < ln; j += p {
				c.Write(nxtL+j, c.Read(curL+int(nxVal[j])))
			}
		})
		cur, nxt = nxt, cur
		if m.Err() != nil {
			return 0, m.Err()
		}
	}
	end := m.Peek(cur) // final successor of node 0
	return end & 1, m.Err()
}

// --- BSP sample sort ----------------------------------------------------------

// SampleSortBSP sorts the n block-distributed values with one-round regular
// sample sort: local sort, p regular samples per component, splitter
// selection at component 0, bucket routing, local merge. On return
// component i holds its sorted bucket at private offset outOff (returned)
// with its length at private offset outOff-1. Buckets are bounded by
// 2·⌈n/p⌉ + p values w.h.p. for non-adversarial inputs (regular sampling
// guarantee for distinct keys); overflow is reported as an error.
func SampleSortBSP(m *bsp.Machine, n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("sortrank: n must be ≥ 1, got %d", n)
	}
	p := m.P()
	maxBlk := (n + p - 1) / p
	bucketCap := 2*maxBlk + p
	// Private layout: [0,maxBlk) input; splitters [s0, s0+p-1); output
	// length at outOff-1, output at [outOff, outOff+bucketCap).
	s0 := maxBlk
	outOff := s0 + p // (p-1 splitters + 1 length slot)

	// Superstep 1: local sort; send p regular samples to component 0.
	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		blk := hi - lo
		vals := c.Priv()[:blk]
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		c.Work(blk * log2ceil(blk+1))
		for s := 0; s < p && blk > 0; s++ {
			c.Send(0, int64(s), vals[s*blk/p])
		}
	})

	// Superstep 2: component 0 sorts the ≤ p² samples and broadcasts p−1
	// splitters to everyone.
	m.Superstep(func(c *bsp.Ctx) {
		if c.Comp() != 0 {
			return
		}
		in := c.Incoming()
		samples := make([]int64, 0, len(in))
		for _, msg := range in {
			samples = append(samples, msg.Val)
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		c.Work(len(samples) * log2ceil(len(samples)+1))
		for dst := 0; dst < p; dst++ {
			for s := 1; s < p; s++ {
				idx := s * len(samples) / p
				if idx >= len(samples) {
					idx = len(samples) - 1
				}
				var v int64
				if len(samples) > 0 {
					v = samples[idx]
				}
				c.Send(dst, int64(s-1), v)
			}
		}
	})

	// Superstep 3: store splitters; route values to buckets.
	m.Superstep(func(c *bsp.Ctx) {
		for _, msg := range c.Incoming() {
			c.Priv()[s0+int(msg.Tag)] = msg.Val
		}
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		// Splitters just arrived in this superstep's inbox — they were sent
		// in the previous superstep, so using them now is legal.
		spl := c.Priv()[s0 : s0+p-1]
		// Bucket destinations are computed locally; the whole block is then
		// routed in one batched send (the values column is the sorted
		// private block itself, in order).
		dsts := make([]int32, hi-lo)
		for i := 0; i < hi-lo; i++ {
			v := c.Priv()[i]
			dsts[i] = int32(sort.Search(len(spl), func(k int) bool { return spl[k] > v }))
			c.Work(log2ceil(p))
		}
		c.SendBatch(dsts, nil, c.Priv()[:hi-lo])
	})

	// Superstep 4: local merge of the received bucket.
	overflow := make([]bool, p)
	m.Superstep(func(c *bsp.Ctx) {
		in := c.Incoming()
		vals := make([]int64, 0, len(in))
		for _, msg := range in {
			vals = append(vals, msg.Val)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		c.Work(len(vals) * log2ceil(len(vals)+1))
		if len(vals) > bucketCap {
			overflow[c.Comp()] = true
			return
		}
		c.Priv()[outOff-1] = int64(len(vals))
		copy(c.Priv()[outOff:outOff+len(vals)], vals)
	})
	if m.Err() != nil {
		return 0, m.Err()
	}
	for comp, of := range overflow {
		if of {
			return 0, fmt.Errorf("sortrank: bucket %d overflowed capacity %d", comp, bucketCap)
		}
	}
	return outOff, nil
}

// PrivNeedSampleSortBSP returns the private memory SampleSortBSP needs.
func PrivNeedSampleSortBSP(n, p int) int {
	maxBlk := (n + p - 1) / p
	return maxBlk + p + 2*maxBlk + p
}

func log2ceil(x int) int {
	k := 0
	for v := 1; v < x; v <<= 1 {
		k++
	}
	return k
}
