package boolor

import (
	"math/rand"

	"repro/internal/qsm"
)

// RandomizedOR is the randomized low-contention OR — the Section 8
// "adaptation of a QRQW algorithm given in [9]" that computes OR w.h.p. in
// O(g·log n / log log n) time when unit-time concurrent reads are
// available (run it on a CRQW machine).
//
// Mechanism: the inputs are first dispersed by a random permutation (each
// processor re-addresses its cell by a shared random hash — modelled here
// by the seeded permutation), then reduced through a fan-in-⌈log₂ n⌉
// contention tree. After dispersal, every group of k = ⌈log₂ n⌉ cells
// contains O(k·m/width + log n) ones w.h.p. regardless of the adversarial
// placement of the m ones, so each level's write contention is O(log n)
// w.h.p. and the depth is log n/log log n.
//
// Returns the address of the result cell.
func RandomizedOR(m *qsm.Machine, rng *rand.Rand, base, n int) (int, error) {
	if err := checkInput(m.MemSize(), base, n); err != nil {
		return 0, err
	}
	fanin := log2ceil(n)
	if fanin < 2 {
		fanin = 2
	}

	// Dispersal phase: processor j writes its value to the permuted
	// address (one read + one write per processor; contention 1).
	perm := rng.Perm(n)
	disp := m.MemSize()
	m.Grow(disp + n)
	p := m.P()
	vals := make([]int64, n)
	m.ForAll(n, func(c *qsm.Ctx) {
		for j := c.Proc(); j < n; j += p {
			vals[j] = c.Read(base + j)
		}
	})
	m.ForAll(n, func(c *qsm.Ctx) {
		for j := c.Proc(); j < n; j += p {
			c.Write(disp+perm[j], vals[j])
		}
	})

	return ContentionTree(m, disp, n, fanin)
}

func log2ceil(x int) int {
	k := 0
	for v := 1; v < x; v <<= 1 {
		k++
	}
	return k
}
