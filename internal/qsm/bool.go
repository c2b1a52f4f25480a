package qsm

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/engine"
)

// BoolMachine is the bit-packed QSM-family machine for Boolean workloads
// (Parity, OR): the engine's BitMem runtime — one bit per shared-memory
// cell, 64 cells to a word — under the same cost rules, violation
// semantics and observer contract as the word-valued Machine. A Boolean
// algorithm issuing the same request sequence on both machines produces
// byte-identical cost reports and event streams; only the memory
// footprint (and the commit's apply bandwidth) shrinks 64×.
type BoolMachine struct {
	engine.BitMem
	rule cost.Rule
}

// BoolCtx is the per-processor handle inside a BoolMachine phase (Proc,
// Read, ReadWord, Write, Op). It is not safe to share across processors.
type BoolCtx = engine.BitCtx

// NewBool constructs a bit-packed machine from the same Config as New;
// MemCells counts bits.
func NewBool(c Config) (*BoolMachine, error) {
	p := cost.Params{G: c.G, P: c.P, D: c.D}
	if err := engine.ValidateConfig("qsm", p, c.N, c.MemCells, c.Workers, false); err != nil {
		return nil, err
	}
	if c.Rule == cost.RuleQSMGD && c.D < 1 {
		return nil, fmt.Errorf("qsm: QSM(g,d) requires d ≥ 1, got %d", c.D)
	}
	m := &BoolMachine{rule: c.Rule}
	if err := m.InitBits(boolModel{m}, p, c.N, c.MemCells); err != nil {
		return nil, err
	}
	return m, nil
}

// MustNewBool is NewBool for statically-valid configurations; it panics
// on error.
func MustNewBool(c Config) *BoolMachine {
	m, err := NewBool(c)
	if err != nil {
		panic(err)
	}
	return m
}

// G returns the gap parameter.
func (m *BoolMachine) G() int64 { return m.Params().G }

// Rule returns the machine's cost rule.
func (m *BoolMachine) Rule() cost.Rule { return m.rule }

// Load copies vals (each 0 or 1) into shared memory starting at addr,
// outside of any phase; it mirrors Machine.Load on Boolean data.
func (m *BoolMachine) Load(addr int, vals []int64) error {
	if addr < 0 || addr+len(vals) > m.MemSize() {
		return fmt.Errorf("qsm: Load out of range [%d,%d) of %d cells",
			addr, addr+len(vals), m.MemSize())
	}
	for i, v := range vals {
		if v != 0 && v != 1 {
			return fmt.Errorf("qsm: Load of non-Boolean value %d into bit cell %d", v, addr+i)
		}
		m.SetBit(addr+i, v == 1)
	}
	return nil
}

// Peek reads a cell outside of any phase, as 0 or 1. Like Machine.Peek,
// an out-of-range address records a machine error and returns 0.
func (m *BoolMachine) Peek(addr int) int64 {
	if addr < 0 || addr >= m.MemSize() {
		m.RecordErr(fmt.Errorf("qsm: Peek out of range: cell %d of %d", addr, m.MemSize()))
		return 0
	}
	if m.Bit(addr) {
		return 1
	}
	return 0
}

// PeekRange copies cells [addr, addr+k) as 0/1 words for host-side
// inspection; out-of-range records a machine error and zero-fills.
func (m *BoolMachine) PeekRange(addr, k int) []int64 {
	if k < 0 {
		m.RecordErr(fmt.Errorf("qsm: PeekRange negative length %d", k))
		return nil
	}
	out := make([]int64, k)
	if addr < 0 || addr+k > m.MemSize() {
		m.RecordErr(fmt.Errorf("qsm: PeekRange out of range [%d,%d) of %d cells",
			addr, addr+k, m.MemSize()))
		return out
	}
	for i := range out {
		if m.Bit(addr + i) {
			out[i] = 1
		}
	}
	return out
}

// boolModel binds the engine's bit-packed runtime to the QSM family; the
// cost rule is the word-valued adapter's phaseCost, so reports match.
type boolModel struct{ m *BoolMachine }

func (md boolModel) Name() string     { return md.m.rule.String() }
func (md boolModel) Entity() string   { return "processor" }
func (md boolModel) Prefix() string   { return "qsm" }
func (md boolModel) Violation() error { return ErrViolation }

func (md boolModel) PhaseCost(o engine.Outcome) cost.PhaseCost {
	return phaseCost(md.m.rule, md.m.Params(), md.m.N(), o)
}
