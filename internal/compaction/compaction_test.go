package compaction

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/cost"
	"repro/internal/qsm"
	"repro/internal/workload"
)

func qsmFor(t *testing.T, n, p int, g int64) *qsm.Machine {
	t.Helper()
	m, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: g, N: n, MemCells: n})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDartLACPlacesEveryItem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, h int }{
		{16, 0}, {16, 1}, {64, 8}, {256, 64}, {512, 512}, {1000, 100},
	} {
		in, err := workload.Sparse(rng.Int63(), tc.n, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		m := qsmFor(t, tc.n, tc.n, 2)
		if err := m.Load(0, in); err != nil {
			t.Fatal(err)
		}
		res, err := DartLAC(m, rng, 0, tc.n)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if len(res.Placed) != tc.h {
			t.Fatalf("%+v: placed %d items, want %d", tc, len(res.Placed), tc.h)
		}
		// Linear size: output ≤ DartFactor·h·(geometric series bound 2).
		if tc.h > 0 && res.OutSize > 2*DartFactor*tc.h+DartFactor {
			t.Errorf("%+v: output size %d not linear in h=%d", tc, res.OutSize, tc.h)
		}
		// Every placement cell actually holds the item's tag, and cells are
		// distinct.
		seen := map[int]bool{}
		for tag, cell := range res.Placed {
			if seen[cell] {
				t.Fatalf("%+v: two items share cell %d", tc, cell)
			}
			seen[cell] = true
			if got := m.Peek(cell); got != tag {
				t.Fatalf("%+v: cell %d holds %d, want tag %d", tc, cell, got, tag)
			}
		}
	}
}

func TestDartLACValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := qsmFor(t, 8, 8, 1)
	if _, err := DartLAC(m, rng, 0, 0); err == nil {
		t.Error("want n error")
	}
	if _, err := DartLAC(m, rng, 4, 8); err == nil {
		t.Error("want range error")
	}
	small := qsmFor(t, 64, 4, 1)
	small.Grow(64)
	if _, err := DartLAC(small, rng, 0, 64); err == nil {
		t.Error("want processors error")
	}
}

func TestDartLACRoundsSmall(t *testing.T) {
	// With 4× oversizing the live set shrinks fast: rounds should be well
	// below the log₂ n guard.
	rng := rand.New(rand.NewSource(3))
	n := 1 << 12
	in, _ := workload.Sparse(7, n, n/4)
	m := qsmFor(t, n, n, 2)
	if err := m.Load(0, in); err != nil {
		t.Fatal(err)
	}
	res, err := DartLAC(m, rng, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 8 {
		t.Errorf("dart rounds = %d, want ≤ 8 for n=2^12", res.Rounds)
	}
}

func TestDetLACExactStable(t *testing.T) {
	for _, tc := range []struct{ n, h int }{
		{1, 0}, {1, 1}, {10, 3}, {100, 50}, {257, 31},
	} {
		in, err := workload.Sparse(int64(tc.n), tc.n, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		m := qsmFor(t, tc.n, tc.n, 1)
		if err := m.Load(0, in); err != nil {
			t.Fatal(err)
		}
		out, k, err := DetLAC(m, 0, tc.n, 4)
		if err != nil {
			t.Fatal(err)
		}
		if k != tc.h {
			t.Fatalf("%+v: k = %d, want %d", tc, k, tc.h)
		}
		// Stable: items appear in input order.
		var want []int64
		for _, v := range in {
			if v != 0 {
				want = append(want, v)
			}
		}
		for i, w := range want {
			if got := m.Peek(out + i); got != w {
				t.Fatalf("%+v: out[%d] = %d, want %d", tc, i, got, w)
			}
		}
	}
}

func TestDetLACValidation(t *testing.T) {
	m := qsmFor(t, 8, 8, 1)
	if _, _, err := DetLAC(m, 0, 0, 2); err == nil {
		t.Error("want n error")
	}
	if _, _, err := DetLAC(m, 6, 8, 2); err == nil {
		t.Error("want range error")
	}
}

func TestDetLACPropertyMatchesDart(t *testing.T) {
	f := func(seed int64, nRaw, hRaw uint8) bool {
		n := int(nRaw%120) + 1
		h := int(hRaw) % (n + 1)
		in, err := workload.Sparse(seed, n, h)
		if err != nil {
			return false
		}
		m1, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: n, G: 1, N: n, MemCells: n})
		if err != nil {
			return false
		}
		if err := m1.Load(0, in); err != nil {
			return false
		}
		_, k, err := DetLAC(m1, 0, n, 2)
		if err != nil || k != h {
			return false
		}
		m2, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: n, G: 1, N: n, MemCells: n})
		if err != nil {
			return false
		}
		if err := m2.Load(0, in); err != nil {
			return false
		}
		res, err := DartLAC(m2, rand.New(rand.NewSource(seed)), 0, n)
		return err == nil && len(res.Placed) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLoadBalance(t *testing.T) {
	// 16 processors with skewed counts; every object must get a slot and
	// origins must appear exactly count times.
	n := 16
	counts := []int64{9, 0, 0, 3, 1, 1, 0, 0, 5, 2, 0, 0, 0, 0, 0, 4}
	m := qsmFor(t, n, n, 1)
	if err := m.Load(0, counts); err != nil {
		t.Fatal(err)
	}
	out, h, err := LoadBalance(m, 0, n, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if h != 25 {
		t.Fatalf("h = %d, want 25", h)
	}
	got := make(map[int64]int)
	for r := 0; r < h; r++ {
		got[m.Peek(out+r)-1]++
	}
	for i, c := range counts {
		if int64(got[int64(i)]) != c {
			t.Errorf("origin %d appears %d times, want %d", i, got[int64(i)], c)
		}
	}
	// Round-robin destinations: each of n processors receives ≤ ⌈h/n⌉.
	per := make([]int, n)
	for r := 0; r < h; r++ {
		per[r%n]++
	}
	for i, c := range per {
		if c > (h+n-1)/n {
			t.Errorf("destination %d got %d > ⌈h/n⌉", i, c)
		}
	}
}

func TestLoadBalanceValidation(t *testing.T) {
	m := qsmFor(t, 8, 8, 1)
	if _, _, err := LoadBalance(m, 0, 0, 2, 1); err == nil {
		t.Error("want n error")
	}
	if _, _, err := LoadBalance(m, 0, 8, 2, 0); err == nil {
		t.Error("want maxPer error")
	}
	if _, _, err := LoadBalance(m, 4, 8, 2, 1); err == nil {
		t.Error("want range error")
	}
}

func TestSolveCLB(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst, err := workload.NewCLB(11, 512, 2)
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int64, inst.N)
	for i, c := range inst.Colors {
		colors[i] = int64(c)
	}
	m := qsmFor(t, inst.N, inst.N, 2)
	if err := m.Load(0, colors); err != nil {
		t.Fatal(err)
	}
	res, err := SolveCLB(m, rng, inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.GroupsOfColor(0)
	if res.Groups != len(want) {
		t.Fatalf("solver found %d groups of color 0, want %d", res.Groups, len(want))
	}
	// Every group of color 0 got 4 distinct rows; rows never shared.
	rows := map[int]bool{}
	for _, g := range want {
		dr, ok := res.DestRows[g]
		if !ok {
			t.Fatalf("group %d unassigned", g)
		}
		for _, r := range dr {
			if rows[r] {
				t.Fatalf("row %d assigned twice", r)
			}
			rows[r] = true
			if r < 0 || r >= inst.N {
				t.Fatalf("row %d out of range", r)
			}
		}
	}
}

func TestPaddedSortBSP(t *testing.T) {
	n, p, pad := 1<<10, 16, 4
	in := workload.Uniform01(21, n)
	m, err := bsp.New(bsp.Config{
		P: p, G: 1, L: 4, N: n,
		PrivCells: PrivNeedPaddedSortBSP(n, p, pad),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Scatter(in); err != nil {
		t.Fatal(err)
	}
	outOff, err := PaddedSortBSP(m, n, pad)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the padded array and verify sortedness + multiset equality.
	maxBlk := (n + p - 1) / p
	seg := pad * maxBlk
	var nonzero []int64
	prev := int64(-1)
	for comp := 0; comp < p; comp++ {
		for i := 0; i < seg; i++ {
			v := m.Peek(comp, outOff+i)
			if v == 0 {
				continue
			}
			if v < prev {
				t.Fatalf("output not sorted: %d after %d", v, prev)
			}
			prev = v
			nonzero = append(nonzero, v)
		}
	}
	if len(nonzero) != n {
		t.Fatalf("output holds %d values, want %d", len(nonzero), n)
	}
	// Multiset check via sorted copies.
	inCopy := append([]int64(nil), in...)
	sortInt64(inCopy)
	for i := range inCopy {
		if inCopy[i] != nonzero[i] {
			t.Fatalf("value multiset mismatch at %d", i)
		}
	}
}

func TestPaddedSortBSPValidation(t *testing.T) {
	m, _ := bsp.New(bsp.Config{P: 2, G: 1, L: 1, N: 4, PrivCells: 64})
	if _, err := PaddedSortBSP(m, 4, 1); err == nil {
		t.Error("want pad-factor error")
	}
	if _, err := PaddedSortBSP(m, 0, 2); err == nil {
		t.Error("want n error")
	}
}

func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// zeroSource forces every dart to slot 0: exactly one item retires per
// round, so with enough items the convergence guard must fire.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func TestDartLACNonConvergenceGuard(t *testing.T) {
	n := 256
	in, err := workload.Sparse(1, n, n) // every cell an item
	if err != nil {
		t.Fatal(err)
	}
	m := qsmFor(t, n, n, 1)
	if err := m.Load(0, in); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(zeroSource{})
	if _, err := DartLAC(m, rng, 0, n); err == nil {
		t.Fatal("want non-convergence error under an adversarial dart source")
	}
}

func TestDartLACAdversarialSourceStillCorrectWhenFeasible(t *testing.T) {
	// With few items, one-retirement-per-round still finishes within the
	// guard; the result must be complete and collision-free.
	n, h := 64, 8
	in, err := workload.Sparse(2, n, h)
	if err != nil {
		t.Fatal(err)
	}
	m := qsmFor(t, n, n, 1)
	if err := m.Load(0, in); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(zeroSource{})
	res, err := DartLAC(m, rng, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placed) != h {
		t.Fatalf("placed %d, want %d", len(res.Placed), h)
	}
	if res.Rounds != h {
		t.Errorf("rounds = %d, want exactly h=%d (one retirement per round)", res.Rounds, h)
	}
}

// Two tags that share a cell are a corrupt result; VerifyPlacement must
// name them the same way on every call, although Placed is a map whose
// iteration order changes from one call to the next.
func TestVerifyPlacementSharedCellStable(t *testing.T) {
	input := []int64{1, 1, 1}
	r := &DartResult{OutBase: 10, OutSize: 8, Placed: map[int64]int{1: 12, 2: 12, 3: 15}}
	first := VerifyPlacement(input, r)
	if first == nil {
		t.Fatal("a shared cell passed verification")
	}
	for i := 0; i < 50; i++ {
		if err := VerifyPlacement(input, r); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: %v, first call: %v", i, err, first)
		}
	}
	if want := "compaction: tags 1 and 2 share cell 12"; first.Error() != want {
		t.Errorf("error %q, want %q", first, want)
	}
	b := &BSPDartResult{Placed: map[int64][2]int{5: {0, 3}, 4: {0, 3}, 6: {1, 1}}}
	want := []BSPPlacement{{6, 1, 1}, {4, 0, 3}, {5, 0, 3}}
	for i := 0; i < 50; i++ {
		if got := b.PlacedSlots(); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("call %d: BSP PlacedSlots %v, want %v", i, got, want)
		}
	}
}
