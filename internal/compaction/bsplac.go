package compaction

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bsp"
)

// BSPDartResult reports a BSP dart-throwing compaction.
type BSPDartResult struct {
	// Rounds is the number of dart rounds (each round is 2 supersteps).
	Rounds int
	// Placed maps every item tag to its (component, segment slot) in the
	// final placement. Iterating the map directly is order-nondeterministic;
	// order-sensitive consumers use PlacedSlots.
	Placed map[int64][2]int
	// OutSize is the total target space used across rounds.
	OutSize int
}

// BSPPlacement is one compacted item: its tag and the (component, slot)
// pair it won.
type BSPPlacement struct {
	Tag  int64
	Comp int
	Slot int
}

// PlacedSlots returns the placements ordered by global slot, then by
// tag — the deterministic iteration view of Placed, a total order even
// when two tags share a slot.
func (r *BSPDartResult) PlacedSlots() []BSPPlacement {
	ps := make([]BSPPlacement, 0, len(r.Placed))
	for tag, loc := range r.Placed { //lint:maporder-ok slice is sorted by (slot, tag) before return
		ps = append(ps, BSPPlacement{Tag: tag, Comp: loc[0], Slot: loc[1]})
	}
	slices.SortFunc(ps, func(a, b BSPPlacement) int {
		return cmp.Or(cmp.Compare(a.Slot, b.Slot), cmp.Compare(a.Tag, b.Tag))
	})
	return ps
}

// DartLACBSP compacts the ≤ n items (nonzero private cells of the
// block-distributed input) into O(#items) space on a BSP machine by dart
// throwing: every live item throws a dart at a uniformly random slot of a
// fresh 4×-oversized target (slots are striped over components); the
// component owning the slot picks the winner (lowest sender id, a
// deterministic queue head) and acknowledges it; losers retry. The
// h-relation per round is the maximum slot collision count — the same
// contention the QSM variant is charged.
//
// Items are tagged origin·blk + local index + 1. Private memory needs
// PrivNeedDartBSP(n, p) cells.
func DartLACBSP(m *bsp.Machine, rng *rand.Rand, n int) (*BSPDartResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("compaction: n must be ≥ 1, got %d", n)
	}
	p := m.P()

	// Collect live items (host-side mirror of per-component private state;
	// all decisions below are per-item-local and per-slot-local, exactly
	// what the components could compute themselves).
	type item struct {
		comp int
		tag  int64
	}
	var live []item
	collect := make([][]int64, p)
	m.Superstep(func(c *bsp.Ctx) {
		lo, hi := bsp.BlockRange(n, p, c.Comp())
		var tags []int64
		for i := 0; i < hi-lo; i++ {
			if c.Priv()[i] != 0 {
				tags = append(tags, int64(lo+i)+1)
			}
			c.Work(1)
		}
		collect[c.Comp()] = tags
	})
	if m.Err() != nil {
		return nil, m.Err()
	}
	for comp, tags := range collect {
		for _, tg := range tags {
			live = append(live, item{comp: comp, tag: tg})
		}
	}

	res := &BSPDartResult{Placed: make(map[int64][2]int, len(live))}
	maxRounds := 4*log2ceil(n) + 8

	for len(live) > 0 {
		if res.Rounds >= maxRounds {
			return nil, fmt.Errorf("compaction: BSP dart LAC did not converge in %d rounds", maxRounds)
		}
		res.Rounds++
		segSize := DartFactor * len(live)
		segBase := res.OutSize // global slot ids are unique across rounds
		res.OutSize += segSize

		// Each live item draws a slot in this round's fresh segment; slot
		// s lives on component s % p. The message Tag carries the global
		// slot id.
		throw := make(map[int][][2]int64, p) // comp -> (slot, tag) messages
		for _, it := range live {
			s := segBase + rng.Intn(segSize)
			throw[it.comp] = append(throw[it.comp], [2]int64{int64(s), it.tag})
		}
		m.Superstep(func(c *bsp.Ctx) {
			for _, t := range throw[c.Comp()] {
				c.Send(int(t[0])%p, t[0], t[1])
				c.Work(1)
			}
		})
		// Slot owners pick the first arrival per slot (deterministic queue
		// head) and acknowledge the winner's origin component.
		m.Superstep(func(c *bsp.Ctx) {
			seen := make(map[int64]bool)
			for _, msg := range c.Incoming() {
				c.Work(1)
				if seen[msg.Tag] {
					continue // slot already claimed this round
				}
				seen[msg.Tag] = true
				c.Send(msg.From, msg.Tag, msg.Val) // ack: slot, winner tag
			}
		})
		// Winners retire; losers stay live. The acks delivered in this
		// superstep identify the winners; each component records only its
		// own acks (no shared state across concurrent bodies).
		ackByComp := make([][][2]int64, p)
		m.Superstep(func(c *bsp.Ctx) {
			for _, msg := range c.Incoming() {
				c.Work(1)
				ackByComp[c.Comp()] = append(ackByComp[c.Comp()], [2]int64{msg.Val, msg.Tag})
			}
		})
		acked := make(map[int64]int64) // tag -> slot
		for _, as := range ackByComp {
			for _, a := range as {
				acked[a[0]] = a[1]
			}
		}
		if m.Err() != nil {
			return nil, m.Err()
		}
		var next []item
		for _, it := range live {
			if slot, ok := acked[it.tag]; ok {
				res.Placed[it.tag] = [2]int{int(slot) % p, int(slot)}
			} else {
				next = append(next, it)
			}
		}
		live = next
	}
	return res, m.Err()
}

// PrivNeedDartBSP returns the private memory DartLACBSP needs.
func PrivNeedDartBSP(n, p int) int { return (n + p - 1) / p }
