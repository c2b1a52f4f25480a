package gsm

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/qsm"
)

func mk(t *testing.T, c Config) *Machine {
	t.Helper()
	m, err := New(c)
	if err != nil {
		t.Fatalf("New(%+v): %v", c, err)
	}
	return m
}

// The commit pipeline must merge identically for every Workers setting:
// information sets are canonical and set union is order-insensitive, so
// cell contents, κ, and big-step counts cannot depend on chunk layout.
func TestCommitDeterministicAcrossWorkers(t *testing.T) {
	const p, cells, phases = 200, 64, 4
	run := func(workers int) ([]Info, cost.Report) {
		m := mk(t, Config{P: p, Alpha: 2, Beta: 3, Gamma: 1, N: p, Cells: cells, Workers: workers})
		for ph := 0; ph < phases; ph++ {
			ph := ph
			m.Phase(func(c *Ctx) {
				i := c.Proc()
				c.Read((i*3 + ph) % (cells / 2))
				c.Write(cells/2+(i+ph)%(cells/2), NewInfo(int64(i), int64(i*2+ph)))
				if i%4 == 0 {
					c.Write(cells/2+ph, NewInfo(int64(1000+i)))
				}
			})
		}
		if m.Err() != nil {
			t.Fatal(m.Err())
		}
		out := make([]Info, cells)
		for a := range out {
			out[a] = m.Peek(a)
		}
		return out, *m.Report()
	}
	seqCells, seqRep := run(1)
	for _, w := range []int{2, 8} {
		parCells, parRep := run(w)
		if !reflect.DeepEqual(seqCells, parCells) {
			t.Errorf("Workers=%d: cell contents differ", w)
		}
		if !reflect.DeepEqual(seqRep, parRep) {
			t.Errorf("Workers=%d: report differs\nseq: %+v\npar: %+v", w, seqRep, parRep)
		}
	}
}

func TestPeekOutOfRangeRecordsError(t *testing.T) {
	cfg := Config{P: 2, Alpha: 1, Beta: 1, Gamma: 1, N: 4, Cells: 8}

	m := mk(t, cfg)
	if got := m.Peek(-1); got != nil {
		t.Errorf("Peek(-1) = %v, want nil", got)
	}
	if err := m.Err(); err == nil {
		t.Error("Peek(-1) must record a machine error")
	}

	m = mk(t, cfg)
	if got := m.Peek(100); got != nil {
		t.Errorf("Peek(100) = %v, want nil", got)
	}
	if err := m.Err(); err == nil {
		t.Error("Peek(100) must record a machine error")
	}

	m = mk(t, cfg)
	m.Peek(0)
	m.Peek(7)
	if err := m.Err(); err != nil {
		t.Errorf("in-range Peek recorded error: %v", err)
	}
}

func TestInfoSetOperations(t *testing.T) {
	a := NewInfo(3, 1, 2, 3, 1)
	if len(a) != 3 || a[0] != 1 || a[2] != 3 {
		t.Fatalf("NewInfo dedup/sort failed: %v", a)
	}
	b := NewInfo(2, 4)
	u := a.Merge(b)
	want := []int64{1, 2, 3, 4}
	if len(u) != len(want) {
		t.Fatalf("Merge = %v, want %v", u, want)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("Merge = %v, want %v", u, want)
		}
	}
	if !u.Contains(3) || u.Contains(7) {
		t.Error("Contains wrong")
	}
	if got := Info(nil).Merge(nil); len(got) != 0 {
		t.Errorf("nil merge = %v", got)
	}
	if got := NewInfo(); got != nil {
		t.Errorf("NewInfo() = %v, want nil", got)
	}
}

// TestInfoSubsetMergeAllocatesNothing pins that a merge adding no atom
// returns the receiver itself, without allocating: a cell that already
// holds what a phase writes keeps its set.
func TestInfoSubsetMergeAllocatesNothing(t *testing.T) {
	in := NewInfo(1, 3, 5, 7, 9)
	for _, sub := range []Info{nil, NewInfo(1), NewInfo(5, 9), NewInfo(1, 3, 5, 7, 9)} {
		var got Info
		if n := testing.AllocsPerRun(100, func() { got = in.Merge(sub) }); n != 0 {
			t.Errorf("%v.Merge(%v) allocates %.0f objects per call, want 0", in, sub, n)
		}
		if len(got) != len(in) || &got[0] != &in[0] {
			t.Errorf("%v.Merge(%v) = %v, want the receiver itself", in, sub, got)
		}
	}
}

func TestInfoMergeProperty(t *testing.T) {
	// Merge is the sorted union, commutative and idempotent.
	f := func(xs, ys []int8) bool {
		ax := make([]int64, len(xs))
		for i, v := range xs {
			ax[i] = int64(v)
		}
		ay := make([]int64, len(ys))
		for i, v := range ys {
			ay[i] = int64(v)
		}
		a, b := NewInfo(ax...), NewInfo(ay...)
		ab, ba := a.Merge(b), b.Merge(a)
		if !slices.Equal(ab, NewInfo(append(ax, ay...)...)) {
			return false
		}
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
			if i > 0 && ab[i-1] >= ab[i] {
				return false
			}
		}
		aa := a.Merge(a)
		if len(aa) != len(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtomRoundTrip(t *testing.T) {
	f := func(iRaw uint16, v uint8) bool {
		i := int(iRaw)
		a := InputAtom(i, int64(v))
		gi, gv := AtomInput(a)
		return gi == i && gv == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{P: 1, Alpha: 0, Beta: 1, Gamma: 1, N: 1},
		{P: 1, Alpha: 1, Beta: 0, Gamma: 1, N: 1},
		{P: 1, Alpha: 1, Beta: 1, Gamma: 0, N: 1},
		{P: 0, Alpha: 1, Beta: 1, Gamma: 1, N: 1},
		{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: 0},
		{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: 1, Cells: -2},
		{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: 1, Workers: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	MustNew(Config{})
}

func TestLoadInputsGammaPacking(t *testing.T) {
	m := mk(t, Config{P: 2, Alpha: 1, Beta: 1, Gamma: 3, N: 7, Cells: 4})
	vals := []int64{1, 0, 1, 1, 0, 0, 1}
	if err := m.LoadInputs(vals); err != nil {
		t.Fatal(err)
	}
	// Cell 0 holds inputs 0..2, cell 2 holds input 6.
	if got := len(m.Peek(0)); got != 3 {
		t.Errorf("cell 0 atoms = %d, want 3", got)
	}
	if got := len(m.Peek(2)); got != 1 {
		t.Errorf("cell 2 atoms = %d, want 1", got)
	}
	if !m.Peek(1).Contains(InputAtom(4, 0)) {
		t.Error("cell 1 missing input 4")
	}
	if err := m.LoadInputs(vals[:3]); err == nil {
		t.Error("want length error")
	}
	small := mk(t, Config{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: 7, Cells: 2})
	if err := small.LoadInputs(vals); err == nil {
		t.Error("want too-few-cells error")
	}
}

func TestStrongQueuingMergesAllWrites(t *testing.T) {
	// 5 processors write disjoint atoms to cell 0 in one phase: unlike the
	// QSM's arbitrary-winner rule, the GSM cell must contain ALL of them.
	m := mk(t, Config{P: 5, Alpha: 1, Beta: 1, Gamma: 1, N: 5, Cells: 1})
	m.Phase(func(c *Ctx) {
		c.Write(0, NewInfo(int64(1000+c.Proc())))
	})
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	got := m.Peek(0)
	if len(got) != 5 {
		t.Fatalf("cell contains %d atoms, want 5 (strong queuing)", len(got))
	}
	for i := 0; i < 5; i++ {
		if !got.Contains(int64(1000 + i)) {
			t.Errorf("missing atom %d", 1000+i)
		}
	}
}

func TestBigStepAccounting(t *testing.T) {
	// α=2, β=3, μ=3. One processor reads 5 cells (⌈5/2⌉=3 big-steps);
	// contention 1 (⌈1/3⌉=1). Phase time = 3·3 = 9.
	m := mk(t, Config{P: 2, Alpha: 2, Beta: 3, Gamma: 1, N: 8, Cells: 8})
	m.Phase(func(c *Ctx) {
		if c.Proc() == 0 {
			for j := 0; j < 5; j++ {
				c.Read(j)
			}
		}
	})
	ph := m.Report().Phases[0]
	if ph.BigSteps != 3 {
		t.Errorf("big-steps = %d, want 3", ph.BigSteps)
	}
	if ph.Time != 9 {
		t.Errorf("time = %d, want 9", ph.Time)
	}
}

func TestContentionBigSteps(t *testing.T) {
	// β=4: 10 writers to one cell ⇒ ⌈10/4⌉ = 3 big-steps of μ=4 ⇒ 12.
	m := mk(t, Config{P: 10, Alpha: 4, Beta: 4, Gamma: 1, N: 10, Cells: 1})
	m.Phase(func(c *Ctx) { c.Write(0, NewInfo(int64(c.Proc()))) })
	ph := m.Report().Phases[0]
	if ph.BigSteps != 3 || ph.Time != 12 {
		t.Errorf("big-steps=%d time=%d, want 3/12", ph.BigSteps, ph.Time)
	}
}

func TestEmptyPhaseChargesOneBigStep(t *testing.T) {
	m := mk(t, Config{P: 2, Alpha: 3, Beta: 5, Gamma: 1, N: 2, Cells: 1})
	m.Phase(func(c *Ctx) {})
	ph := m.Report().Phases[0]
	if ph.BigSteps != 1 || ph.Time != 5 {
		t.Errorf("empty phase big-steps=%d time=%d, want 1/μ=5", ph.BigSteps, ph.Time)
	}
}

func TestReadWriteConflict(t *testing.T) {
	m := mk(t, Config{P: 2, Alpha: 1, Beta: 1, Gamma: 1, N: 2, Cells: 1})
	m.Phase(func(c *Ctx) {
		if c.Proc() == 0 {
			c.Read(0)
		} else {
			c.Write(0, NewInfo(1))
		}
	})
	if !errors.Is(m.Err(), ErrViolation) {
		t.Fatalf("Err = %v, want ErrViolation", m.Err())
	}
}

func TestOutOfRange(t *testing.T) {
	m := mk(t, Config{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: 1, Cells: 1})
	m.Phase(func(c *Ctx) { c.Read(9) })
	if m.Err() == nil {
		t.Error("want out-of-range error")
	}
	m2 := mk(t, Config{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: 1, Cells: 1})
	m2.Phase(func(c *Ctx) { c.Write(-3, nil) })
	if m2.Err() == nil {
		t.Error("want out-of-range error")
	}
}

func TestRoundClassification(t *testing.T) {
	// n=64, p=8, α=β=1 ⇒ μ=λ=1: budget = 4·64/8 = 32 time units. A phase
	// with m_rw = 8 (8 big-steps) is a round; one with contention 64 is not.
	m := mk(t, Config{P: 8, Alpha: 1, Beta: 1, Gamma: 1, N: 64, Cells: 70})
	m.Phase(func(c *Ctx) {
		for j := 0; j < 8; j++ {
			c.Read(c.Proc()*8 + j)
		}
	})
	m.Phase(func(c *Ctx) {
		for j := 0; j < 64; j++ {
			c.Write(64, NewInfo(int64(j)))
		}
	})
	r := m.Report()
	if !r.Phases[0].IsRound {
		t.Error("n/p-read phase should be a round")
	}
	if r.Phases[1].IsRound {
		t.Error("κ=512 phase should not be a round")
	}
}

// --- Claim 2.1 adapters ----------------------------------------------------

// runQSMTree runs a binary-tree OR on a QSM machine and returns the report.
func runQSMTree(t *testing.T, rule cost.Rule, n int, g int64) *cost.Report {
	t.Helper()
	m, err := qsm.New(qsm.Config{Rule: rule, P: n, G: g, N: n, MemCells: 4 * n})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int64, n)
	in[n-1] = 1
	if err := m.Load(0, in); err != nil {
		t.Fatal(err)
	}
	src, dst := 0, n
	for w := n; w > 1; w = (w + 1) / 2 {
		half := (w + 1) / 2
		s, d := src, dst
		width := w
		m.ForAll(half, func(c *qsm.Ctx) {
			a := c.Read(s + 2*c.Proc())
			var b int64
			if 2*c.Proc()+1 < width {
				b = c.Read(s + 2*c.Proc() + 1)
			}
			c.Op(1)
			v := int64(0)
			if a != 0 || b != 0 {
				v = 1
			}
			c.Write(d+c.Proc(), v)
		})
		src, dst = dst, dst+half
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	return m.Report()
}

func TestClaim21QSMEmulation(t *testing.T) {
	// Claim 2.1(1): T_QSM = Ω(T_GSM(n,1,g,1)): the GSM emulation of a QSM
	// run is never more than a constant factor above the QSM time.
	for _, g := range []int64{1, 2, 4, 8} {
		r := runQSMTree(t, cost.RuleQSM, 64, g)
		e := EmulateQSM(r)
		if int64(e) > 2*int64(r.TotalTime) {
			t.Errorf("g=%d: GSM emulation %d exceeds 2×QSM time %d", g, e, r.TotalTime)
		}
		if e <= 0 {
			t.Errorf("g=%d: non-positive emulated time %d", g, e)
		}
	}
}

func TestClaim21SQSMEmulation(t *testing.T) {
	// Claim 2.1(2): T_s-QSM = Ω(g·T_GSM(n,1,1,1)).
	for _, g := range []int64{1, 2, 4, 8} {
		r := runQSMTree(t, cost.RuleSQSM, 64, g)
		e := EmulateSQSM(r)
		if g*int64(e) > 2*int64(r.TotalTime) {
			t.Errorf("g=%d: g·GSM emulation %d exceeds 2×s-QSM time %d", g, g*int64(e), r.TotalTime)
		}
	}
}

func TestClaim21BSPEmulation(t *testing.T) {
	// Build a synthetic BSP report: supersteps with varying h-relations.
	r := &cost.Report{Model: "BSP", N: 64, Params: cost.Params{G: 2, L: 8, P: 8}}
	for _, h := range []int64{1, 4, 16, 3} {
		r.Add(cost.PhaseCost{MaxRW: h, Time: cost.Time(max(2*h, 8))})
	}
	e := EmulateBSP(r)
	// Claim 2.1(3): T_BSP = Ω(g·T_GSM(n, L/g, L/g, n/p)).
	if 2*int64(e) > 2*int64(r.TotalTime) {
		t.Errorf("g·GSM emulation %d exceeds 2×BSP time %d", 2*int64(e), r.TotalTime)
	}
}

// Property: for any synthetic QSM report, the GSM emulation never exceeds
// twice the QSM time — the constant-factor direction of Claim 2.1(1).
func TestClaim21EmulationProperty(t *testing.T) {
	f := func(phases []uint16, gRaw uint8) bool {
		g := int64(gRaw%15) + 1
		r := &cost.Report{Model: "QSM", N: 64, Params: cost.Params{G: g, P: 8}}
		for i, raw := range phases {
			if i >= 12 {
				break
			}
			mrw := int64(raw%64) + 1
			kappa := int64(raw/64%128) + 1
			time := cost.RuleQSM.PhaseTime(g, 0, 0, mrw, kappa, kappa)
			r.Add(cost.PhaseCost{MaxRW: mrw, Contention: kappa, Time: time})
		}
		if len(r.Phases) == 0 {
			return true
		}
		e := EmulateQSM(r)
		return int64(e) <= 2*int64(r.TotalTime)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGSMContentionDedup(t *testing.T) {
	m := mk(t, Config{P: 2, Alpha: 1, Beta: 1, Gamma: 1, N: 2, Cells: 4})
	m.Phase(func(c *Ctx) {
		if c.Proc() == 0 {
			c.Write(3, NewInfo(1))
			c.Write(3, NewInfo(2)) // same processor, same cell
		}
	})
	ph := m.Report().Phases[0]
	if ph.Contention != 1 {
		t.Errorf("κ = %d, want 1 (per-processor dedup)", ph.Contention)
	}
	if ph.MaxRW != 2 {
		t.Errorf("m_rw = %d, want 2", ph.MaxRW)
	}
	// Strong queuing still merges both writes' information.
	info := m.Peek(3)
	if !info.Contains(1) || !info.Contains(2) {
		t.Errorf("cell info = %v, want both atoms", info)
	}
}

// Claim 2.1 items 5–7 (rounds transfer): the rounds of a real QSM/s-QSM
// rounds computation, emulated on the GSM with the claimed parameters,
// remain GSM rounds.
func TestClaim21RoundsPreserved(t *testing.T) {
	// Build a rounds computation: fan-in n/p OR tree on p = n/8 procs.
	n, p, g := 1<<10, 1<<7, int64(4)
	m, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: g, N: n, MemCells: 4 * n})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int64, n)
	in[3] = 1
	if err := m.Load(0, in); err != nil {
		t.Fatal(err)
	}
	// Strided fan-in-8 tree (reads contention-free).
	cur, width := 0, n
	next := n
	for width > 1 {
		nw := (width + 7) / 8
		curL, widthL, nextL := cur, width, next
		m.Phase(func(c *qsm.Ctx) {
			for j := c.Proc(); j < nw; j += p {
				var s int64
				for i := 0; i < 8; i++ {
					ch := j*8 + i
					if ch >= widthL {
						break
					}
					if c.Read(curL+ch) != 0 {
						s = 1
					}
				}
				c.Write(nextL+j, s)
			}
		})
		cur, width, next = next, nw, next+nw
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	r := m.Report()
	if !r.AllRounds {
		t.Fatal("source computation must be in rounds")
	}
	// Claim 2.1(5): QSM rounds → GSM(1, g, 1) rounds.
	if !RoundsPreserved(r, 1, g, 1, 2) {
		t.Error("QSM rounds not preserved on GSM(1,g,1)")
	}
	// Claim 2.1(6): s-QSM rounds → GSM(1, 1, 1) rounds.
	if !RoundsPreserved(r, 1, 1, 1, 2) {
		t.Error("rounds not preserved on GSM(1,1,1)")
	}
	// A non-round-shaped report is rejected: synthetic phase with huge
	// contention marked (incorrectly) as a round must fail the budget.
	bad := &cost.Report{Model: "QSM", N: 64, Params: cost.Params{G: 1, P: 8}}
	bad.Add(cost.PhaseCost{MaxRW: 1, Contention: 10_000, Time: 1, IsRound: true})
	if RoundsPreserved(bad, 1, 1, 1, 2) {
		t.Error("huge-contention phase must break the GSM round budget")
	}
}
