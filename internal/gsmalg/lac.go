package gsmalg

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/gsm"
)

// DartFactor is the oversizing of each GSM dart-throwing target segment.
const DartFactor = 4

// LACResult reports a GSM compaction.
type LACResult struct {
	// Rounds is the number of throw/read-back dart rounds.
	Rounds int
	// Placed maps item tags to their claimed output cells. Iterating the
	// map directly is order-nondeterministic; order-sensitive consumers use
	// PlacedSlots.
	Placed map[int64]int
	// OutSize is the total target space allocated.
	OutSize int
	// PointerBase addresses the ECLB pointer region: cell PointerBase+i
	// carries the destination of input cell i (Section 6.1's Enhanced CLB
	// requirement — each input cell must point at its item's destination).
	PointerBase int
}

// Placement is one compacted item: its tag and the output cell it claimed.
type Placement struct {
	Tag  int64
	Cell int
}

// PlacedSlots returns the placements ordered by output cell, then by tag
// — the deterministic iteration view of Placed, a total order even when
// two tags share a cell.
func (r *LACResult) PlacedSlots() []Placement {
	ps := make([]Placement, 0, len(r.Placed))
	for tag, cell := range r.Placed { //lint:maporder-ok slice is sorted by (cell, tag) before return
		ps = append(ps, Placement{Tag: tag, Cell: cell})
	}
	slices.SortFunc(ps, func(a, b Placement) int {
		return cmp.Or(cmp.Compare(a.Cell, b.Cell), cmp.Compare(a.Tag, b.Tag))
	})
	return ps
}

// DartLACGSM compacts the items tagged in the n input cells [0, n) into
// O(#items) space by dart throwing on the GSM. Strong queuing changes the
// mechanics relative to the QSM variant: every throw lands (all
// information merges into the target cell), so a cell's winner is decided
// locally and deterministically — the smallest tag among its arrivals —
// and losers re-throw. After placement, one extra phase writes the
// Enhanced-CLB destination pointers next to the inputs (Claim 6.1's m-step
// post-processing, here one phase because γ items share a cell).
//
// Items are the nonzero atoms v (tags) in cells' info sets; the machine
// must have been loaded via LoadInputs with item values (0 = empty).
func DartLACGSM(m *gsm.Machine, rng *rand.Rand, n int) (*LACResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("gsmalg: n must be ≥ 1, got %d", n)
	}
	gamma := int(m.Gamma())
	r := (n + gamma - 1) / gamma
	if m.P() < r {
		return nil, fmt.Errorf("gsmalg: need ≥ %d processors, have %d", r, m.P())
	}

	// Phase 0: processor i reads input cell i and learns its items.
	itemsOf := make([][]int64, r)
	m.ForAll(r, func(c *gsm.Ctx) {
		i := c.Proc()
		for _, a := range c.Read(i) {
			if _, v := gsm.AtomInput(a); v != 0 {
				idx, _ := gsm.AtomInput(a)
				itemsOf[i] = append(itemsOf[i], int64(idx)+1)
			}
		}
	})
	if m.Err() != nil {
		return nil, m.Err()
	}
	type dart struct {
		owner int // processor responsible for the item
		tag   int64
	}
	var live []dart
	for i, items := range itemsOf {
		for _, tag := range items {
			live = append(live, dart{owner: i, tag: tag})
		}
	}

	res := &LACResult{Placed: make(map[int64]int, len(live))}
	maxRounds := 4*log2ceil(n) + 8
	base := n // fresh cells after the inputs

	for len(live) > 0 {
		if res.Rounds >= maxRounds {
			return nil, fmt.Errorf("gsmalg: GSM dart LAC did not converge in %d rounds", maxRounds)
		}
		res.Rounds++
		segBase := base + res.OutSize
		segSize := DartFactor * len(live)
		res.OutSize += segSize
		m.Grow(segBase + segSize)

		slotOf := make(map[int64]int, len(live))
		for _, d := range live {
			slotOf[d.tag] = segBase + rng.Intn(segSize)
		}
		// Throw phase: every live item's owner writes the tag to its slot
		// (strong queuing merges collisions — nothing is lost).
		m.ForAll(r, func(c *gsm.Ctx) {
			i := c.Proc()
			for _, d := range live {
				if d.owner == i {
					c.Write(slotOf[d.tag], gsm.NewInfo(d.tag))
				}
			}
		})
		// Read-back phase: the owner checks whether its tag is the minimum
		// in the slot (the deterministic queue winner).
		winner := make(map[int64]bool, len(live))
		winMu := make([][]int64, r)
		m.ForAll(r, func(c *gsm.Ctx) {
			i := c.Proc()
			for _, d := range live {
				if d.owner != i {
					continue
				}
				info := c.Read(slotOf[d.tag])
				if len(info) > 0 && info[0] == d.tag { // sorted: min first
					winMu[i] = append(winMu[i], d.tag)
				}
			}
		})
		if m.Err() != nil {
			return nil, m.Err()
		}
		for _, tags := range winMu {
			for _, tag := range tags {
				winner[tag] = true
			}
		}
		var next []dart
		for _, d := range live {
			if winner[d.tag] {
				res.Placed[d.tag] = slotOf[d.tag]
			} else {
				next = append(next, d)
			}
		}
		live = next
	}

	// ECLB pointers: one phase — processor i writes, next to input cell i,
	// the destinations of the items it owns.
	res.PointerBase = base + res.OutSize
	m.Grow(res.PointerBase + r)
	m.ForAll(r, func(c *gsm.Ctx) {
		i := c.Proc()
		var ptrs gsm.Info
		for _, tag := range itemsOf[i] {
			ptrs = ptrs.Merge(gsm.NewInfo(int64(res.Placed[tag])))
		}
		if len(ptrs) > 0 {
			c.Write(res.PointerBase+i, ptrs)
		}
	})
	return res, m.Err()
}

func log2ceil(x int) int {
	k := 0
	for v := 1; v < x; v <<= 1 {
		k++
	}
	return k
}
