package qsm

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/cost"
)

func mk(t *testing.T, c Config) *Machine {
	t.Helper()
	m, err := New(c)
	if err != nil {
		t.Fatalf("New(%+v): %v", c, err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Rule: cost.RuleQSM, P: 0, G: 1, N: 1}); err == nil {
		t.Error("want error for P=0")
	}
	if _, err := New(Config{Rule: cost.RuleQSM, P: 1, G: 0, N: 1}); err == nil {
		t.Error("want error for G=0")
	}
	if _, err := New(Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 0}); err == nil {
		t.Error("want error for N=0")
	}
	if _, err := New(Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 1, MemCells: -1}); err == nil {
		t.Error("want error for negative memory")
	}
	if _, err := New(Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 1, Workers: -1}); err == nil {
		t.Error("want error for negative Workers")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestLoadPeek(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 2, G: 1, N: 4, MemCells: 8})
	if err := m.Load(2, []int64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(3); got != 20 {
		t.Errorf("Peek(3) = %d, want 20", got)
	}
	if got := m.PeekRange(2, 3); got[0] != 10 || got[2] != 30 {
		t.Errorf("PeekRange = %v", got)
	}
	if err := m.Load(7, []int64{1, 2}); err == nil {
		t.Error("want out-of-range Load error")
	}
}

func TestPeekOutOfRangeRecordsError(t *testing.T) {
	cfg := Config{Rule: cost.RuleQSM, P: 2, G: 1, N: 4, MemCells: 8}

	m := mk(t, cfg)
	if got := m.Peek(-1); got != 0 {
		t.Errorf("Peek(-1) = %d, want 0", got)
	}
	if err := m.Err(); err == nil {
		t.Error("Peek(-1) must record a machine error")
	}

	m = mk(t, cfg)
	if got := m.Peek(100); got != 0 {
		t.Errorf("Peek(100) = %d, want 0", got)
	}
	if err := m.Err(); err == nil {
		t.Error("Peek(100) must record a machine error")
	}

	m = mk(t, cfg)
	if got := m.PeekRange(6, 3); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Errorf("out-of-range PeekRange = %v, want zeroed slice", got)
	}
	if err := m.Err(); err == nil {
		t.Error("out-of-range PeekRange must record a machine error")
	}

	m = mk(t, cfg)
	if got := m.PeekRange(0, -1); got != nil {
		t.Errorf("negative-length PeekRange = %v, want nil", got)
	}
	if err := m.Err(); err == nil {
		t.Error("negative-length PeekRange must record a machine error")
	}

	// In-range accessors on a fresh machine leave it healthy.
	m = mk(t, cfg)
	m.Peek(0)
	m.PeekRange(0, 8)
	if err := m.Err(); err != nil {
		t.Errorf("in-range Peek/PeekRange recorded error: %v", err)
	}
}

func TestGrow(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 1, MemCells: 2})
	m.Load(0, []int64{5, 6})
	m.Grow(10)
	if m.MemSize() != 10 {
		t.Errorf("MemSize = %d, want 10", m.MemSize())
	}
	if m.Peek(0) != 5 || m.Peek(1) != 6 {
		t.Error("Grow must preserve contents")
	}
	m.Grow(4) // shrinking request is a no-op
	if m.MemSize() != 10 {
		t.Errorf("MemSize after no-op Grow = %d, want 10", m.MemSize())
	}
}

// TestSnapshotSemantics: reads in a phase must observe pre-phase memory even
// when another processor writes the cell in the same phase is illegal; here
// we check writes commit only at the barrier using disjoint cells.
func TestSnapshotSemantics(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 2, G: 1, N: 2, MemCells: 4})
	m.Load(0, []int64{7, 0, 0, 0})
	// Phase 1: proc 0 copies cell0→cell1; proc 1 copies cell0→cell2.
	m.Phase(func(c *Ctx) {
		v := c.Read(0)
		c.Write(1+c.Proc(), v)
	})
	// Phase 2: both read the cells written in phase 1.
	var got [2]int64
	m.Phase(func(c *Ctx) {
		got[c.Proc()] = c.Read(1 + c.Proc())
	})
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if got[0] != 7 || got[1] != 7 {
		t.Errorf("phase-2 reads = %v, want 7,7", got)
	}
}

func TestArbitraryWriterDeterminism(t *testing.T) {
	// All processors write their id to cell 0; the committed value must be
	// the highest processor id, on every run.
	for trial := 0; trial < 10; trial++ {
		m := mk(t, Config{Rule: cost.RuleQSM, P: 16, G: 1, N: 16, MemCells: 1})
		m.Phase(func(c *Ctx) { c.Write(0, int64(c.Proc())) })
		if m.Err() != nil {
			t.Fatal(m.Err())
		}
		if got := m.Peek(0); got != 15 {
			t.Fatalf("trial %d: winner = %d, want 15", trial, got)
		}
	}
}

func TestReadWriteConflictIsViolation(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 2, G: 1, N: 2, MemCells: 2})
	m.Phase(func(c *Ctx) {
		if c.Proc() == 0 {
			c.Read(0)
		} else {
			c.Write(0, 1)
		}
	})
	if !errors.Is(m.Err(), ErrViolation) {
		t.Fatalf("Err = %v, want ErrViolation", m.Err())
	}
	// Machine is poisoned: further phases are no-ops.
	before := m.Report().NumPhases()
	m.Phase(func(c *Ctx) { c.Write(1, 9) })
	if m.Report().NumPhases() != before {
		t.Error("phase executed after violation")
	}
	if m.Peek(1) != 0 {
		t.Error("write applied after violation")
	}
}

func TestOutOfRangeAccessErrs(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 1, MemCells: 2})
	m.Phase(func(c *Ctx) { c.Read(5) })
	if m.Err() == nil {
		t.Error("want error for out-of-range read")
	}
	m2 := mk(t, Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 1, MemCells: 2})
	m2.Phase(func(c *Ctx) { c.Write(-1, 3) })
	if m2.Err() == nil {
		t.Error("want error for out-of-range write")
	}
}

func TestPhaseCostQSM(t *testing.T) {
	// 4 procs each read 2 cells (disjoint) and write 1; g=3.
	// m_rw = 2, κ = 1 ⇒ time = max(0, 3·2, 1) = 6.
	m := mk(t, Config{Rule: cost.RuleQSM, P: 4, G: 3, N: 8, MemCells: 16})
	m.Phase(func(c *Ctx) {
		c.Read(c.Proc() * 2)
		c.Read(c.Proc()*2 + 1)
		c.Write(8+c.Proc(), 1)
	})
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	ph := m.Report().Phases[0]
	if ph.Time != 6 {
		t.Errorf("phase time = %d, want 6", ph.Time)
	}
	if ph.MaxRW != 2 {
		t.Errorf("m_rw = %d, want 2", ph.MaxRW)
	}
	if ph.Contention != 1 {
		t.Errorf("κ = %d, want 1", ph.Contention)
	}
}

func TestPhaseCostContentionDominates(t *testing.T) {
	// 8 procs all write cell 0; g=1 ⇒ κ=8 dominates: time 8 on QSM,
	// g·κ=8 on s-QSM with g=1; with g=2, s-QSM charges 16.
	run := func(rule cost.Rule, g int64) cost.Time {
		m := mk(t, Config{Rule: rule, P: 8, G: g, N: 8, MemCells: 1})
		m.Phase(func(c *Ctx) { c.Write(0, 1) })
		if m.Err() != nil {
			t.Fatal(m.Err())
		}
		return m.Report().Phases[0].Time
	}
	if got := run(cost.RuleQSM, 1); got != 8 {
		t.Errorf("QSM κ time = %d, want 8", got)
	}
	if got := run(cost.RuleQSM, 2); got != 8 {
		t.Errorf("QSM g=2 κ time = %d, want 8", got)
	}
	if got := run(cost.RuleSQSM, 2); got != 16 {
		t.Errorf("s-QSM g=2 κ time = %d, want 16", got)
	}
}

func TestCRQWReadContentionFree(t *testing.T) {
	// 16 procs concurrently read cell 0: CRQW charges only g·m_rw = g.
	m := mk(t, Config{Rule: cost.RuleCRQW, P: 16, G: 2, N: 16, MemCells: 1})
	m.Phase(func(c *Ctx) { c.Read(0) })
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if got := m.Report().Phases[0].Time; got != 2 {
		t.Errorf("CRQW concurrent-read time = %d, want 2", got)
	}
	// On plain QSM the same phase costs κ = 16.
	m2 := mk(t, Config{Rule: cost.RuleQSM, P: 16, G: 2, N: 16, MemCells: 1})
	m2.Phase(func(c *Ctx) { c.Read(0) })
	if got := m2.Report().Phases[0].Time; got != 16 {
		t.Errorf("QSM concurrent-read time = %d, want 16", got)
	}
}

func TestEmptyPhaseContentionOne(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 4, G: 5, N: 4, MemCells: 1})
	m.Phase(func(c *Ctx) { c.Op(3) })
	ph := m.Report().Phases[0]
	if ph.Contention != 1 {
		t.Errorf("empty-phase κ = %d, want 1 (paper definition)", ph.Contention)
	}
	if ph.Time != 3 {
		t.Errorf("time = %d, want 3 (m_op)", ph.Time)
	}
}

func TestOpAccounting(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 2, G: 1, N: 2, MemCells: 1})
	m.Phase(func(c *Ctx) {
		if c.Proc() == 1 {
			c.Op(10)
			c.Op(-5) // negative charges are ignored
		}
	})
	if got := m.Report().Phases[0].MaxOps; got != 10 {
		t.Errorf("m_op = %d, want 10", got)
	}
}

// coldSparseAllocLimit bounds the allocations of the first phase of a
// fresh machine with 16 of 2^16 processors active: 32 objects on go1.24,
// for the one lane, the append growth of its columns and span list, the
// merger scratch, the failure tallies, the dispatch closure and the
// first report entry. One context per processor would be over 65,536.
const coldSparseAllocLimit = 40

// TestColdSparsePhaseAllocs pins that a phase costs O(active
// processors), not O(p), from the very first phase on.
func TestColdSparsePhaseAllocs(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 1 << 16, G: 1, N: 16, MemCells: 64, Workers: 1})
	body := func(c *Ctx) {
		c.Read(c.Proc())
		c.Write(32+c.Proc(), 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.ForAll(16, body)
	runtime.ReadMemStats(&after)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := after.Mallocs - before.Mallocs; got > coldSparseAllocLimit {
		t.Errorf("first sparse phase allocated %d objects, want ≤ %d (per-processor state for all p?)", got, coldSparseAllocLimit)
	}
	if got := m.Peek(32 + 15); got != 1 {
		t.Errorf("cell %d = %d, want the active processor's write", 32+15, got)
	}
}

func TestForAll(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 8, G: 1, N: 8, MemCells: 8})
	m.ForAll(3, func(c *Ctx) { c.Write(c.Proc(), 1) })
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	sum := int64(0)
	for i := 0; i < 8; i++ {
		sum += m.Peek(i)
	}
	if sum != 3 {
		t.Errorf("active writes = %d, want 3", sum)
	}
}

func TestRoundClassification(t *testing.T) {
	// n=64, p=8, g=1: round budget = 4·1·64/8 = 32. A phase with m_rw = n/p
	// = 8 costs 8 ≤ 32 → round; a phase with contention 64 is not a round.
	m := mk(t, Config{Rule: cost.RuleQSM, P: 8, G: 1, N: 64, MemCells: 128})
	m.Phase(func(c *Ctx) {
		for j := 0; j < 8; j++ {
			c.Read(c.Proc()*8 + j)
		}
	})
	m.Phase(func(c *Ctx) { c.Write(64, int64(c.Proc())) }) // κ=8, still round
	m.Phase(func(c *Ctx) { c.Op(1000) })                   // huge local work: not a round
	r := m.Report()
	if !r.Phases[0].IsRound || !r.Phases[1].IsRound {
		t.Errorf("cheap phases should be rounds: %+v %+v", r.Phases[0], r.Phases[1])
	}
	if r.Phases[2].IsRound {
		t.Error("expensive phase misclassified as round")
	}
	if r.Rounds != 2 || r.AllRounds {
		t.Errorf("Rounds = %d AllRounds = %v", r.Rounds, r.AllRounds)
	}
}

func TestTotalTimeAccumulates(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleSQSM, P: 2, G: 4, N: 4, MemCells: 4})
	m.Phase(func(c *Ctx) { c.Write(c.Proc(), 1) }) // g·m_rw = 4
	m.Phase(func(c *Ctx) { c.Read(2) })            // κ=2 ⇒ g·κ = 8
	if got := m.Report().TotalTime; got != 12 {
		t.Errorf("TotalTime = %d, want 12", got)
	}
}

// Property: for random disjoint-write workloads, the committed memory equals
// a sequential last-writer-by-processor-order application.
func TestCommitMatchesSequentialProperty(t *testing.T) {
	f := func(seed uint8) bool {
		p := int(seed%7) + 2
		cells := 16
		m := MustNew(Config{Rule: cost.RuleQSM, P: p, G: 1, N: cells, MemCells: cells})
		m.Phase(func(c *Ctx) {
			// Every processor writes proc-id to cell proc%cells and to cell
			// (proc*3)%cells: collisions resolved by highest proc.
			c.Write(c.Proc()%cells, int64(c.Proc()))
			c.Write((c.Proc()*3)%cells, int64(100+c.Proc()))
		})
		if m.Err() != nil {
			return false
		}
		want := make([]int64, cells)
		for proc := 0; proc < p; proc++ {
			want[proc%cells] = int64(proc)
			want[(proc*3)%cells] = int64(100 + proc)
		}
		for a := 0; a < cells; a++ {
			if m.Peek(a) != want[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The commit pipeline must produce identical memory and cost reports for
// every Workers setting: winners are defined by processor id, contention by
// the per-cell processor sets, neither by chunk layout. The workload mixes
// contended writes (winner rule), contended reads, and per-processor
// duplicates (κ dedup) over several phases so buffer reuse is covered too.
func TestCommitDeterministicAcrossWorkers(t *testing.T) {
	const p, mem, phases = 300, 128, 5
	run := func(workers int) ([]int64, cost.Report) {
		m := mk(t, Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: mem, Workers: workers})
		for ph := 0; ph < phases; ph++ {
			ph := ph
			m.Phase(func(c *Ctx) {
				i := c.Proc()
				c.Read((i*7 + ph) % (mem / 2))
				c.Read((i*7 + ph) % (mem / 2)) // duplicate: m_rw 2, κ 1
				c.Write(mem/2+(i*3+ph)%(mem/2), int64(i*1000+ph))
				if i%5 == 0 {
					c.Write(mem/2+ph%(mem/2), int64(i)) // heavy contention on one cell
				}
			})
		}
		if m.Err() != nil {
			t.Fatal(m.Err())
		}
		return m.PeekRange(0, mem), *m.Report()
	}
	seqMem, seqRep := run(1)
	for _, w := range []int{2, 8} {
		parMem, parRep := run(w)
		for i := range seqMem {
			if seqMem[i] != parMem[i] {
				t.Fatalf("Workers=%d: cell %d = %d, want %d", w, i, parMem[i], seqMem[i])
			}
		}
		if !reflect.DeepEqual(seqRep, parRep) {
			t.Errorf("Workers=%d: report differs\nseq: %+v\npar: %+v", w, seqRep, parRep)
		}
	}
}

func TestWorkersOverride(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 100, G: 1, N: 100, MemCells: 100, Workers: 2})
	m.Phase(func(c *Ctx) { c.Write(c.Proc(), int64(c.Proc())*2) })
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	for i := 0; i < 100; i++ {
		if m.Peek(i) != int64(i)*2 {
			t.Fatalf("cell %d = %d", i, m.Peek(i))
		}
	}
}

// Contention counts processors, not requests: one processor issuing two
// reads of the same cell contributes 1 to κ (but 2 to its m_rw) — the
// paper's "number of processors reading x" definition.
func TestContentionCountsProcessorsNotRequests(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleQSM, P: 2, G: 1, N: 2, MemCells: 4})
	m.Phase(func(c *Ctx) {
		if c.Proc() == 0 {
			c.Read(0)
			c.Read(0) // duplicate request, same processor
			c.Read(0)
		}
	})
	ph := m.Report().Phases[0]
	if ph.ReadContention != 1 {
		t.Errorf("κ_read = %d, want 1 (per-processor dedup)", ph.ReadContention)
	}
	if ph.MaxRW != 3 {
		t.Errorf("m_rw = %d, want 3 (requests still charged)", ph.MaxRW)
	}

	// Two distinct processors on one cell still count 2.
	m2 := mk(t, Config{Rule: cost.RuleQSM, P: 2, G: 1, N: 2, MemCells: 4})
	m2.Phase(func(c *Ctx) { c.Read(1) })
	if got := m2.Report().Phases[0].ReadContention; got != 2 {
		t.Errorf("κ_read = %d, want 2", got)
	}

	// Duplicate writes dedupe for κ too; the last value still wins.
	m3 := mk(t, Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 1, MemCells: 2})
	m3.Phase(func(c *Ctx) {
		c.Write(0, 7)
		c.Write(0, 9)
	})
	ph3 := m3.Report().Phases[0]
	if ph3.WriteContention != 1 {
		t.Errorf("κ_write = %d, want 1", ph3.WriteContention)
	}
	if m3.Peek(0) != 9 {
		t.Errorf("cell = %d, want last write 9", m3.Peek(0))
	}
	// Reads and writes to *different* cells by one processor dedupe
	// independently (complement-key bookkeeping must not collide).
	m4 := mk(t, Config{Rule: cost.RuleQSM, P: 1, G: 1, N: 1, MemCells: 4})
	m4.Phase(func(c *Ctx) {
		c.Read(2)
		c.Write(3, 1)
		c.Read(2)
		c.Write(3, 2)
	})
	ph4 := m4.Report().Phases[0]
	if ph4.ReadContention != 1 || ph4.WriteContention != 1 {
		t.Errorf("κ = %d/%d, want 1/1", ph4.ReadContention, ph4.WriteContention)
	}
}

func TestGetters(t *testing.T) {
	m := mk(t, Config{Rule: cost.RuleSQSM, P: 3, G: 5, N: 7, MemCells: 9})
	if m.P() != 3 || m.G() != 5 || m.N() != 7 || m.MemSize() != 9 {
		t.Errorf("getters: P=%d G=%d N=%d Mem=%d", m.P(), m.G(), m.N(), m.MemSize())
	}
	if m.Rule() != cost.RuleSQSM {
		t.Errorf("Rule = %v", m.Rule())
	}
	if m.Report().Model != "s-QSM" {
		t.Errorf("model = %q", m.Report().Model)
	}
}
