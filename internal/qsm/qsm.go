// Package qsm implements a cost-accurate simulator for the shared-memory
// bulk-synchronous model family of MacKenzie & Ramachandran (SPAA 1998),
// Section 2.1: the QSM, the s-QSM, the QRQW PRAM (QSM with g = 1) and the
// CRQW variant with unit-time concurrent reads.
//
// A computation is a sequence of synchronised phases. Within a phase every
// processor may read shared-memory cells, write shared-memory cells and
// perform local computation. The simulator charges each phase exactly the
// paper's cost formula:
//
//	QSM:   max(m_op, g·m_rw, κ)
//	s-QSM: max(m_op, g·m_rw, g·κ)
//	CRQW:  max(m_op, g·m_rw, κ_write)
//
// where m_op is the maximum local operations by any processor, m_rw the
// maximum number of reads/writes by any processor, and κ the maximum
// contention at any cell.
//
// Semantics enforced by the simulator:
//
//   - Reads observe the memory contents as of the start of the phase
//     ("the value returned by a shared-memory read can only be used in a
//     subsequent phase"); all writes commit atomically at the end of the
//     phase.
//   - Multiple writers to one cell are queued and an arbitrary writer wins;
//     for reproducibility the simulator deterministically commits the write
//     of the highest-numbered processor.
//   - A cell that is both read and written within one phase is a model
//     violation (the QSM permits concurrent reads or concurrent writes to a
//     location, "but not both") and aborts the run with an error.
//
// The phase lifecycle — body dispatch, the deterministic
// column barrier merge, cost accounting and observer events — lives in
// internal/engine; this package is the thin model adapter binding that
// runtime to the QSM-family cost rules and last-writer-wins commit.
package qsm

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Machine is a QSM-family shared-memory machine: the engine's
// shared-memory runtime under a QSM cost rule.
type Machine struct {
	engine.Mem[int64]
	rule  cost.Rule
	trace *trace.Trace
}

// Ctx is the per-processor handle available inside a phase (Proc, Read,
// Write, Op). It is not safe to share a Ctx across processors.
type Ctx = engine.MemCtx[int64]

// Config selects the machine variant and parameters.
type Config struct {
	// Rule selects QSM, s-QSM or CRQW cost accounting.
	Rule cost.Rule
	// P is the number of processors.
	P int
	// G is the gap parameter (g = 1 yields the QRQW PRAM under RuleQSM).
	G int64
	// D is the memory gap of the QSM(g,d) model; used only by RuleQSMGD.
	D int64
	// N is the input size; it only affects round classification (a phase is
	// a round iff its time is O(g·N/P)).
	N int
	// MemCells is the initial shared-memory size in cells.
	MemCells int
	// Workers is validated (it must be ≥ 0) and has no effect on how
	// the machine runs: every phase runs its bodies on the calling
	// goroutine.
	Workers int
}

// New constructs a machine. The shared memory is zero-initialised.
func New(c Config) (*Machine, error) {
	p := cost.Params{G: c.G, P: c.P, D: c.D}
	if err := engine.ValidateConfig("qsm", p, c.N, c.MemCells, c.Workers, false); err != nil {
		return nil, err
	}
	if c.Rule == cost.RuleQSMGD && c.D < 1 {
		return nil, fmt.Errorf("qsm: QSM(g,d) requires d ≥ 1, got %d", c.D)
	}
	m := &Machine{rule: c.Rule}
	m.InitMem(qsmModel{m}, p, c.N, c.MemCells)
	return m, nil
}

// MustNew is New for statically-valid configurations; it panics on error.
func MustNew(c Config) *Machine {
	m, err := New(c)
	if err != nil {
		panic(err)
	}
	return m
}

// EnableTracing switches on the Section 5 trace (package trace); call
// before the first phase.
func (m *Machine) EnableTracing() {
	m.trace = trace.Shared(m.P(), m.Data, qsmModel{m}.Render)
	m.AddObserver(m.trace)
}

// TraceLog returns the recorded trace, or nil if tracing was off.
func (m *Machine) TraceLog() *trace.Trace { return m.trace }

// G returns the gap parameter.
func (m *Machine) G() int64 { return m.Params().G }

// Rule returns the machine's cost rule.
func (m *Machine) Rule() cost.Rule { return m.rule }

// Load copies vals into shared memory starting at addr, outside of any
// phase. It models the initial placement of the input and is not charged.
func (m *Machine) Load(addr int, vals []int64) error {
	mem := m.Data()
	if addr < 0 || addr+len(vals) > len(mem) {
		return fmt.Errorf("qsm: Load out of range [%d,%d) of %d cells",
			addr, addr+len(vals), len(mem))
	}
	copy(mem[addr:], vals)
	return nil
}

// Peek reads a cell outside of any phase (for output extraction by the
// host; not charged). An out-of-range address is a host-side bug: it
// records a machine error (first error wins) and returns 0, so algorithm
// mistakes cannot be masked by phantom zeros.
func (m *Machine) Peek(addr int) int64 {
	mem := m.Data()
	if addr < 0 || addr >= len(mem) {
		m.RecordErr(fmt.Errorf("qsm: Peek out of range: cell %d of %d", addr, len(mem)))
		return 0
	}
	return mem[addr]
}

// PeekRange copies cells [addr, addr+k) for host-side inspection. Like
// Peek, a range that leaves the memory records a machine error and the
// returned slice is zero-filled.
func (m *Machine) PeekRange(addr, k int) []int64 {
	mem := m.Data()
	if k < 0 {
		m.RecordErr(fmt.Errorf("qsm: PeekRange negative length %d", k))
		return nil
	}
	out := make([]int64, k)
	if addr < 0 || addr+k > len(mem) {
		m.RecordErr(fmt.Errorf("qsm: PeekRange out of range [%d,%d) of %d cells",
			addr, addr+k, len(mem)))
		return out
	}
	copy(out, mem[addr:addr+k])
	return out
}

// SurvivorRanks ranks the processors that have not crashed, for a
// degraded runner that deals work item j to the survivor of rank
// j mod ns: surv lists the survivors in ascending order (surv[r] holds
// rank r, ns = len(surv)), and rank[i] is processor i's rank, −1 once it
// is masked. width is the dispatch width that covers the survivors of
// the first k ranks — one past surv[min(k, ns)−1], 0 when k ≤ 0 or no
// processor survives — so ForAll(width, …) runs every processor that
// gets an item and none past the last of them. Runners take the ranks
// again before each phase: a crash lands at a phase barrier and masks
// from the next phase on.
func (m *Machine) SurvivorRanks(k int) (surv, rank []int, width int) {
	surv = m.Survivors()
	rank = make([]int, m.P())
	for i := range rank {
		rank[i] = -1
	}
	for r, pr := range surv {
		rank[pr] = r
	}
	if k = min(k, len(surv)); k > 0 {
		width = surv[k-1] + 1
	}
	return surv, rank, width
}

// ErrViolation wraps QSM memory-access-rule violations.
var ErrViolation = errors.New("qsm: memory access rule violation")

// qsmModel binds the engine's shared-memory runtime to the QSM family:
// word-valued cells, last-writer-wins commit, and the rule's phase-time
// formula with the paper's κ = 1 convention for request-free phases.
type qsmModel struct{ m *Machine }

func (md qsmModel) Name() string     { return md.m.rule.String() }
func (md qsmModel) Entity() string   { return "processor" }
func (md qsmModel) Prefix() string   { return "qsm" }
func (md qsmModel) Violation() error { return ErrViolation }

// Apply commits a request column of writes last-writer-wins; the engine
// hands it the writes in ascending processor order, so the winner at each
// cell is the final write of the highest-numbered processor. Plain words
// pair with values one to one up to the column's first run; from there
// applyRuns takes over. The plain loop keeps the per-cell commit rows
// 10–40% faster than applyRuns alone (EXPERIMENTS.md, "Plain words as
// they are").
func (md qsmModel) Apply(mem []int64, addrs []int32, vals []int64) {
	for j, a := range addrs {
		if a < 0 {
			applyRuns(mem, addrs[j:], vals[j:])
			return
		}
		mem[a] = vals[j]
	}
}

// applyRuns commits a request column that holds runs: a plain word or
// a run with one copy, a fill run with one loop over its cells.
func applyRuns(mem []int64, addrs []int32, vals []int64) {
	for i, j := 0, 0; i < len(addrs); {
		a, n, next, fill := engine.RunFill(addrs, i)
		cells := mem[a : int(a)+n]
		if fill {
			v := vals[j]
			for k := range cells {
				cells[k] = v
			}
			j++
		} else {
			j += copy(cells, vals[j:j+n])
		}
		i = next
	}
}

func (md qsmModel) Render(v int64) string { return strconv.FormatInt(v, 10) }

func (md qsmModel) PhaseCost(o engine.Outcome) cost.PhaseCost {
	return phaseCost(md.m.rule, md.m.Params(), md.m.N(), o)
}

// phaseCost is the QSM-family cost rule shared by the word-valued and
// bit-packed machines: one charging function, so the two produce
// identical cost reports for identical request sequences.
func phaseCost(rule cost.Rule, pr cost.Params, n int, o engine.Outcome) cost.PhaseCost {
	kr, kw := o.KRead, o.KWrite
	// A phase with no reads or writes has contention one by definition.
	if kr == 0 && kw == 0 {
		kr = 1
	}
	t := rule.PhaseTime(pr.G, pr.D, o.MaxOps, o.MaxRW, kr, kw)
	return cost.PhaseCost{
		MaxOps:          o.MaxOps,
		MaxRW:           o.MaxRW,
		Contention:      max(kr, kw),
		ReadContention:  kr,
		WriteContention: kw,
		Time:            t,
		IsRound:         t <= cost.RoundBudget(pr.G, n, pr.P),
	}
}
