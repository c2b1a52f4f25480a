// Package compaction implements the Section 6 problem family of MacKenzie &
// Ramachandran (SPAA 1998) on the simulated machines:
//
//   - Linear Approximate Compaction (LAC): insert the ≤ h items of an n-cell
//     array into an array of size O(h).
//     DartLAC is the randomized dart-throwing algorithm (the QRQW algorithm
//     of Gibbons–Matias–Ramachandran [9], adapted): every live item throws
//     into a fresh 4×-oversized target, keeps its slot if its write won the
//     queue, and retries otherwise; the live set shrinks geometrically, so
//     the total target space is O(h) and the round count is small — the
//     mechanism behind the O(g·√(log n)) s-QSM upper bound.
//     DetLAC is the deterministic prefix-sums algorithm of Section 8 (exact
//     compaction, Θ(log n/log fan-in) phases).
//   - Load Balancing: redistribute h objects held by n processors so every
//     processor gets O(1 + h/n); prefix-sums based.
//   - Chromatic Load Balancing (CLB, Section 6): the paper's lower-bound
//     vehicle, solved here via compaction exactly as in the reduction of
//     Theorem 6.1.
//
// Padded Sort lives in this package too (PaddedSortBSP): it is grouped with
// LAC by the paper and reduces to it.
package compaction

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/bsp"
	"repro/internal/prefix"
	"repro/internal/qsm"
	"repro/internal/workload"
)

// DartFactor is the oversizing factor of each dart-throwing target segment.
const DartFactor = 4

// DartResult reports a randomized compaction.
type DartResult struct {
	// OutBase/OutSize delimit the concatenated target segments; every item
	// of the input occupies exactly one cell in there (holding its tag,
	// origin index + 1), all other cells are 0.
	OutBase, OutSize int
	// Rounds is the number of dart rounds executed.
	Rounds int
	// Placed maps each item tag to its absolute output cell. Iterating the
	// map directly is order-nondeterministic; order-sensitive consumers use
	// PlacedSlots.
	Placed map[int64]int
}

// Placement is one compacted item: its input tag and the output cell it won.
type Placement struct {
	Tag  int64
	Cell int
}

// PlacedSlots returns the placements ordered by output cell, then by tag
// — the deterministic iteration view of Placed for ranking and
// rendering. The order is total, so even a corrupt result whose tags
// share a cell lists them the same way on every call.
func (r *DartResult) PlacedSlots() []Placement {
	ps := make([]Placement, 0, len(r.Placed))
	for tag, cell := range r.Placed { //lint:maporder-ok slice is sorted by (cell, tag) before return
		ps = append(ps, Placement{Tag: tag, Cell: cell})
	}
	slices.SortFunc(ps, func(a, b Placement) int {
		return cmp.Or(cmp.Compare(a.Cell, b.Cell), cmp.Compare(a.Tag, b.Tag))
	})
	return ps
}

// DartLAC compacts the ≤ n items (nonzero cells) of [base, base+n) into
// O(#items) space by iterated dart throwing. The machine needs ≥ n
// processors (one per input cell on the first phase; strided otherwise is
// not supported because an item's retries are private state). rng drives
// the dart choices (host-side stand-in for per-processor private coins).
func DartLAC(m *qsm.Machine, rng *rand.Rand, base, n int) (*DartResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("compaction: n must be ≥ 1, got %d", n)
	}
	if base < 0 || base+n > m.MemSize() {
		return nil, fmt.Errorf("compaction: input [%d,%d) outside memory", base, base+n)
	}
	if m.P() < n {
		return nil, fmt.Errorf("compaction: dart LAC needs ≥ n=%d processors, have %d", n, m.P())
	}

	// Phase 0: every processor inspects its cell; items become live darts.
	vals := make([]int64, n)
	m.ForAll(n, func(c *qsm.Ctx) {
		vals[c.Proc()] = c.Read(base + c.Proc())
	})
	if m.Err() != nil {
		return nil, m.Err()
	}
	type dart struct {
		item int   // origin cell (processor) index
		tag  int64 // value written (origin+1 ensures nonzero)
	}
	var live []dart
	for i, v := range vals {
		if v != 0 {
			live = append(live, dart{item: i, tag: int64(i) + 1})
		}
	}

	res := &DartResult{OutBase: m.MemSize(), Placed: make(map[int64]int, len(live))}
	maxRounds := 4*log2ceil(n) + 8

	// The darts' private state, indexed by item (= processor), allocated
	// once: a round writes slot and won for its live darts before it
	// reads them, and clears inRound for the darts it places.
	slot := make([]int, n)
	inRound := make([]bool, n)
	won := make([]int64, n)
	for len(live) > 0 {
		if res.Rounds >= maxRounds {
			return nil, fmt.Errorf("compaction: dart LAC did not converge in %d rounds (%d items left)",
				maxRounds, len(live))
		}
		res.Rounds++
		segBase := m.MemSize()
		segSize := DartFactor * len(live)
		m.Grow(segBase + segSize)
		res.OutSize += segSize

		// Each live item picks a slot (its processor's private coin).
		for _, d := range live {
			slot[d.item] = segBase + rng.Intn(segSize)
			inRound[d.item] = true
		}
		// live is in ascending item order, so the round's processors all
		// sit below its last dart's: the phases dispatch up to it.
		active := live[len(live)-1].item + 1
		// Phase A: throw (queued writes; an arbitrary writer per cell wins).
		m.ForAll(active, func(c *qsm.Ctx) {
			if inRound[c.Proc()] {
				c.Write(slot[c.Proc()], int64(c.Proc())+1)
			}
		})
		// Phase B: read back; winners claim their slot.
		m.ForAll(active, func(c *qsm.Ctx) {
			if inRound[c.Proc()] {
				won[c.Proc()] = c.Read(slot[c.Proc()])
			}
		})
		if m.Err() != nil {
			return nil, m.Err()
		}
		next := live[:0]
		for _, d := range live {
			if won[d.item] == d.tag {
				res.Placed[d.tag] = slot[d.item]
				inRound[d.item] = false
			} else {
				next = append(next, d)
			}
		}
		live = next
	}
	return res, m.Err()
}

// DartLACDegraded is DartLAC for machines running in degraded fault
// mode: work is re-partitioned over the surviving processors before
// every phase, and each round's live darts are dealt round-robin to
// survivors, so the darts of a crashed processor migrate instead of
// being lost. The written tag identifies the dart (origin+1), not the
// throwing processor, so a dart's win test is owner-independent. A dart
// whose read-back is lost to a crash simply stays live and is rethrown.
// Fails with a diagnosable error once every processor has crashed.
func DartLACDegraded(m *qsm.Machine, rng *rand.Rand, base, n int) (*DartResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("compaction: n must be ≥ 1, got %d", n)
	}
	if base < 0 || base+n > m.MemSize() {
		return nil, fmt.Errorf("compaction: input [%d,%d) outside memory", base, base+n)
	}
	if m.P() < n {
		return nil, fmt.Errorf("compaction: dart LAC needs ≥ n=%d processors, have %d", n, m.P())
	}

	surv, rank, active := m.SurvivorRanks(n)
	if len(surv) == 0 {
		return nil, fmt.Errorf("compaction: all %d processors crashed", m.P())
	}
	ns := len(surv)
	vals := make([]int64, n)
	m.ForAll(active, func(c *qsm.Ctx) {
		r := rank[c.Proc()]
		if r < 0 {
			return
		}
		for j := r; j < n; j += ns {
			vals[j] = c.Read(base + j)
		}
	})
	if m.Err() != nil {
		return nil, m.Err()
	}
	type dart struct {
		item int
		tag  int64
	}
	var live []dart
	for i, v := range vals {
		if v != 0 {
			live = append(live, dart{item: i, tag: int64(i) + 1})
		}
	}

	res := &DartResult{OutBase: m.MemSize(), Placed: make(map[int64]int, len(live))}
	maxRounds := 4*log2ceil(n) + 8

	// Per-processor request columns, allocated once: a survivor's dealt
	// darts (assign), their throw addresses and tags, and what its
	// read-back saw. Every round truncates the ones it filled.
	assign := make([][]int, m.P())
	wAddrs := make([][]int32, m.P())
	wVals := make([][]int64, m.P())
	back := make([][]int64, m.P())
	for len(live) > 0 {
		if res.Rounds >= maxRounds {
			return nil, fmt.Errorf("compaction: dart LAC did not converge in %d rounds (%d items left)",
				maxRounds, len(live))
		}
		res.Rounds++
		segBase := m.MemSize()
		segSize := DartFactor * len(live)
		m.Grow(segBase + segSize)
		res.OutSize += segSize

		// The throwers are survivors by rank, not items: dart k goes to
		// the survivor of rank k mod ns, so the phases dispatch up to the
		// highest survivor dealt a dart.
		surv, _, active = m.SurvivorRanks(len(live))
		if len(surv) == 0 {
			return nil, fmt.Errorf("compaction: all %d processors crashed (round %d, %d items live)",
				m.P(), res.Rounds, len(live))
		}
		// Deal darts round-robin to survivors; slots drawn host-side per
		// dart in live order (deterministic for the run's crash history).
		// Each survivor's darts become one request column pair, submitted
		// whole: throw addresses with tags (phase A), read-backs (phase B).
		slotOf := make([]int, len(live))
		for k := range live {
			pr := surv[k%len(surv)]
			assign[pr] = append(assign[pr], k)
			slotOf[k] = segBase + rng.Intn(segSize)
			wAddrs[pr] = append(wAddrs[pr], int32(slotOf[k]))
			wVals[pr] = append(wVals[pr], live[k].tag)
		}
		// Phase A: throw (queued writes; an arbitrary writer per cell wins).
		m.ForAll(active, func(c *qsm.Ctx) {
			c.WriteBatch(wAddrs[c.Proc()], wVals[c.Proc()])
		})
		// Phase B: read back; winners claim their slot. A crash between
		// the phases leaves an empty column for its darts — they stay live.
		m.ForAll(active, func(c *qsm.Ctx) {
			pr := c.Proc()
			back[pr] = c.ReadBatch(wAddrs[pr], back[pr][:0])
		})
		if m.Err() != nil {
			return nil, m.Err()
		}
		won := make([]int64, len(live))
		for pr, ks := range assign[:active] {
			for i := 0; i < len(back[pr]) && i < len(ks); i++ {
				won[ks[i]] = back[pr][i]
			}
			assign[pr], wAddrs[pr], wVals[pr], back[pr] = ks[:0], wAddrs[pr][:0], wVals[pr][:0], back[pr][:0]
		}
		next := live[:0]
		for k, d := range live {
			if won[k] == d.tag {
				res.Placed[d.tag] = slotOf[k]
			} else {
				next = append(next, d)
			}
		}
		live = next
	}
	return res, m.Err()
}

// VerifyPlacement checks a dart-compaction result for soundness against
// the input the machine compacted: every item (nonzero input cell) is
// placed exactly once, inside the output window, with its own tag, and no
// two items share a cell. It is the chaos harness's correctness oracle
// for LAC runs (and a fuzz target: it must reject any mutation of a valid
// placement without panicking).
func VerifyPlacement(input []int64, r *DartResult) error {
	if r == nil {
		return fmt.Errorf("compaction: nil result")
	}
	items := 0
	for _, v := range input {
		if v != 0 {
			items++
		}
	}
	if len(r.Placed) != items {
		return fmt.Errorf("compaction: placed %d items, input has %d", len(r.Placed), items)
	}
	if r.OutSize < 0 || r.OutBase < 0 {
		return fmt.Errorf("compaction: invalid output window [%d,+%d)", r.OutBase, r.OutSize)
	}
	ps := r.PlacedSlots()
	for i, pl := range ps {
		if pl.Tag < 1 || pl.Tag > int64(len(input)) {
			return fmt.Errorf("compaction: tag %d outside input [1,%d]", pl.Tag, len(input))
		}
		if input[pl.Tag-1] == 0 {
			return fmt.Errorf("compaction: tag %d names an empty input cell", pl.Tag)
		}
		if pl.Cell < r.OutBase || pl.Cell >= r.OutBase+r.OutSize {
			return fmt.Errorf("compaction: tag %d placed at cell %d outside [%d,%d)",
				pl.Tag, pl.Cell, r.OutBase, r.OutBase+r.OutSize)
		}
		if i > 0 && ps[i-1].Cell == pl.Cell {
			return fmt.Errorf("compaction: tags %d and %d share cell %d",
				ps[i-1].Tag, pl.Tag, pl.Cell)
		}
	}
	return nil
}

// DetLAC compacts exactly: the k items of [base, base+n) end up in cells
// [out, out+k) in input order (stable), where out is returned along with k.
// It is the deterministic prefix-sums algorithm of Section 8, with the
// given tree fan-in.
func DetLAC(m *qsm.Machine, base, n, fanin int) (out, k int, err error) {
	if n < 1 {
		return 0, 0, fmt.Errorf("compaction: n must be ≥ 1, got %d", n)
	}
	if base < 0 || base+n > m.MemSize() {
		return 0, 0, fmt.Errorf("compaction: input [%d,%d) outside memory", base, base+n)
	}

	// Indicator array.
	ind := m.MemSize()
	m.Grow(ind + n)
	p := m.P()
	m.ForAll(n, func(c *qsm.Ctx) {
		for j := c.Proc(); j < n; j += p {
			v := c.Read(base + j)
			var b int64
			if v != 0 {
				b = 1
			}
			c.Op(1)
			c.Write(ind+j, b)
		}
	})

	ranks, err := prefix.RunQSM(m, ind, n, fanin)
	if err != nil {
		return 0, 0, err
	}
	k = int(m.Peek(ranks + n - 1))

	out = m.MemSize()
	m.Grow(out + max(k, 1))
	m.ForAll(n, func(c *qsm.Ctx) {
		for j := c.Proc(); j < n; j += p {
			v := c.Read(base + j)
			r := c.Read(ranks + j)
			c.Op(1)
			if v != 0 {
				c.Write(out+int(r)-1, v)
			}
		}
	})
	return out, k, m.Err()
}

// LoadBalance solves the paper's Load Balancing problem: processor i of n
// holds counts[i] (read from the n cells at base) objects; the algorithm
// assigns every object a destination processor so that each destination
// receives at most ⌈h/n⌉+1 objects. The returned base addresses an h-cell
// array whose r-th cell holds the origin processor of the object with
// global rank r; the destination of rank r is r mod n (round-robin over the
// rank space), which every processor can compute locally.
func LoadBalance(m *qsm.Machine, base, n, fanin, maxPer int) (out int, h int, err error) {
	if n < 1 {
		return 0, 0, fmt.Errorf("compaction: n must be ≥ 1, got %d", n)
	}
	if maxPer < 1 {
		return 0, 0, fmt.Errorf("compaction: maxPer must be ≥ 1, got %d", maxPer)
	}
	if base < 0 || base+n > m.MemSize() {
		return 0, 0, fmt.Errorf("compaction: input [%d,%d) outside memory", base, base+n)
	}
	offsets, err := prefix.RunQSM(m, base, n, fanin)
	if err != nil {
		return 0, 0, err
	}
	h = int(m.Peek(offsets + n - 1))
	out = m.MemSize()
	m.Grow(out + max(h, 1))

	p := m.P()
	m.ForAll(n, func(c *qsm.Ctx) {
		for j := c.Proc(); j < n; j += p {
			cnt := c.Read(base + j)
			end := c.Read(offsets + j)
			c.Op(1)
			if cnt > int64(maxPer) {
				// Guard per-processor write volume; the caller promised
				// counts ≤ maxPer.
				cnt = int64(maxPer)
			}
			// The object run is contiguous in rank space: fill it in one
			// batched write of the origin tag.
			c.WriteFill(out+int(end-cnt), int(cnt), int64(j)+1)
		}
	})
	return out, h, m.Err()
}

// --- Chromatic Load Balancing (Section 6) -----------------------------------

// CLBResult reports a Chromatic Load Balancing run.
type CLBResult struct {
	// Color is the color the solver picked (always 0: any color is valid).
	Color int
	// Groups is the number of input groups bearing that color.
	Groups int
	// DestRows[i] is the destination row assigned to the i-th such group's
	// objects (each group of 4m objects fills 4 destination rows of m).
	// Iterating the map directly is order-nondeterministic; order-sensitive
	// consumers use RowAssignments.
	DestRows map[int][4]int
	// Rounds is the dart rounds the inner compaction used.
	Rounds int
}

// GroupRows is one input group's destination-row assignment.
type GroupRows struct {
	Group int
	Rows  [4]int
}

// RowAssignments returns the destination rows ordered by group index —
// the deterministic iteration view of DestRows.
func (r *CLBResult) RowAssignments() []GroupRows {
	gs := make([]GroupRows, 0, len(r.DestRows))
	for g, rows := range r.DestRows { //lint:maporder-ok slice is sorted by group before return
		gs = append(gs, GroupRows{Group: g, Rows: rows})
	}
	slices.SortFunc(gs, func(a, b GroupRows) int { return cmp.Compare(a.Group, b.Group) })
	return gs
}

// SolveCLB solves the chromatic load-balancing instance on a QSM machine by
// the reduction of Theorem 6.1: pick a color, compact the groups of that
// color with DartLAC, and map the rank-r compacted group to destination
// rows 4r..4r+3 (each destination row receives exactly m of the group's 4m
// objects). Succeeds iff 4·(groups of the color) ≤ n destination rows —
// which holds with overwhelming probability since the expectation is n/(2m).
//
// The machine must expose the instance's colors in cells [base, base+n).
func SolveCLB(m *qsm.Machine, rng *rand.Rand, inst *workload.CLB, base int) (*CLBResult, error) {
	n := inst.N
	if base < 0 || base+n > m.MemSize() {
		return nil, fmt.Errorf("compaction: colors [%d,%d) outside memory", base, base+n)
	}
	if m.P() < n {
		return nil, fmt.Errorf("compaction: CLB needs ≥ n=%d processors", n)
	}
	const color = 0

	// Mark groups of the chosen color.
	marks := m.MemSize()
	m.Grow(marks + n)
	m.ForAll(n, func(c *qsm.Ctx) {
		v := c.Read(base + c.Proc())
		var b int64
		if int(v) == color {
			b = int64(c.Proc()) + 1
		}
		c.Op(1)
		c.Write(marks+c.Proc(), b)
	})

	dart, err := DartLAC(m, rng, marks, n)
	if err != nil {
		return nil, err
	}

	// Rank the claimed slots by position to obtain dense ranks (host-side
	// ordering of the O(#groups) placements; in-model this is a DetLAC over
	// the O(h)-sized dart output, which costs lower-order phases).
	ps := dart.PlacedSlots()

	res := &CLBResult{Color: color, Groups: len(ps), DestRows: make(map[int][4]int), Rounds: dart.Rounds}
	if 4*len(ps) > n {
		return nil, fmt.Errorf("compaction: CLB overflow: %d groups of color %d need %d > n=%d rows",
			len(ps), color, 4*len(ps), n)
	}
	// Publish destination rows: one phase, the processor owning each
	// compacted group writes its 4 row ids next to its slot (pointer array).
	ptrs := m.MemSize()
	m.Grow(ptrs + 4*max(len(ps), 1))
	rankOf := make(map[int]int, len(ps)) // item proc -> rank
	for r, pl := range ps {
		rankOf[int(pl.Tag)-1] = r
	}
	m.ForAll(n, func(c *qsm.Ctx) {
		r, ok := rankOf[c.Proc()]
		if !ok {
			return
		}
		// The 4 row ids are contiguous: one block write per group owner.
		var rows [4]int64
		for i := range rows {
			rows[i] = int64(4*r+i) + 1
		}
		c.WriteBlock(ptrs+4*r, rows[:])
	})
	if m.Err() != nil {
		return nil, m.Err()
	}
	for r, pl := range ps {
		res.DestRows[int(pl.Tag)-1] = [4]int{4 * r, 4*r + 1, 4*r + 2, 4*r + 3}
	}
	return res, nil
}

// --- Padded Sort (BSP) --------------------------------------------------------

// PaddedSortBSP sorts the n block-distributed U[0,1] fixed-point values
// (workload.Uniform01) into a padded array of size padFactor·n: component i
// owns output slots [i·S, (i+1)·S), S = padFactor·⌈n/p⌉, at private offset
// outOff (returned). Nonzero entries are globally sorted; zeros are the
// NULL padding. Fails (returns an error) in the improbable event that a
// bucket overflows its segment.
func PaddedSortBSP(m *bsp.Machine, n, padFactor int) (int, error) {
	if padFactor < 2 {
		return 0, fmt.Errorf("compaction: pad factor must be ≥ 2, got %d", padFactor)
	}
	if n < 1 {
		return 0, fmt.Errorf("compaction: n must be ≥ 1, got %d", n)
	}
	p := m.P()
	maxBlk := (n + p - 1) / p
	seg := padFactor * maxBlk
	outOff := maxBlk + 1

	// Superstep 1: route every value to the component owning its bucket.
	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		for i := 0; i < hi-lo; i++ {
			v := c.Priv()[i]
			dst := int(v * int64(p) / workload.Denom01)
			if dst >= p {
				dst = p - 1
			}
			c.Send(dst, 0, v)
			c.Work(1)
		}
	})
	// Superstep 2: local sort into the padded segment.
	overflow := make([]bool, p)
	m.Superstep(func(c *bsp.Ctx) {
		in := c.Incoming()
		vals := make([]int64, 0, len(in))
		for _, msg := range in {
			vals = append(vals, msg.Val)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		c.Work(len(vals) * log2ceil(len(vals)+1))
		if len(vals) > seg {
			overflow[c.Comp()] = true
			return
		}
		for i := 0; i < seg; i++ {
			if i < len(vals) {
				c.Priv()[outOff+i] = vals[i]
			} else {
				c.Priv()[outOff+i] = 0
			}
		}
	})
	if m.Err() != nil {
		return 0, m.Err()
	}
	for comp, of := range overflow {
		if of {
			return 0, fmt.Errorf("compaction: padded sort bucket %d overflowed its segment of %d", comp, seg)
		}
	}
	return outOff, nil
}

// PrivNeedPaddedSortBSP returns the private memory PaddedSortBSP needs.
func PrivNeedPaddedSortBSP(n, p, padFactor int) int {
	maxBlk := (n + p - 1) / p
	return maxBlk + 1 + padFactor*maxBlk
}

func log2ceil(x int) int {
	k := 0
	for v := 1; v < x; v <<= 1 {
		k++
	}
	return k
}
