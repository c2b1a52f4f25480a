// Package gsm implements the Generalized Shared Memory (GSM) model of
// MacKenzie & Ramachandran (SPAA 1998), Section 2.2 — the strengthened
// lower-bound model from which the paper derives its QSM, s-QSM and BSP
// bounds.
//
// The GSM differs from the QSM in three ways that make it strictly stronger:
//
//  1. Strong queuing: shared-memory cells hold arbitrarily large information
//     sets. When several processors write to one cell in a phase, ALL of the
//     written information is merged into the cell (nothing is lost).
//  2. Local computation is free: a phase consists only of reads and writes.
//  3. Cost is measured in big-steps of duration μ = max(α, β). A phase with
//     maximum per-processor reads/writes m_rw and maximum contention κ takes
//     b = max(⌈m_rw/α⌉, ⌈κ/β⌉) big-steps, i.e. time μ·b. A single big-step
//     "handles" α reads/writes per processor and β contention per cell.
//
// At the start of an algorithm each cell contains information about up to γ
// inputs (disjoint across cells).
//
// The phase lifecycle — dispatch, the deterministic column barrier merge,
// cost accounting and observer events — lives in internal/engine; this
// package is the model adapter binding that runtime to Info-valued cells,
// the strong-queuing merge commit and big-step accounting.
//
// The package also provides the Claim 2.1 emulation adapters: given the cost
// report of a QSM, s-QSM or BSP run, they compute the cost of executing the
// same computation on an appropriately-parameterised GSM, making the paper's
// lower-bound transfer argument an executable (and tested) statement.
package gsm

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Info is the information content of a GSM cell: a sorted set of abstract
// information atoms (int64 tokens). The zero value is the empty set.
type Info []int64

// Contains reports whether the atom is in the set.
func (in Info) Contains(a int64) bool {
	_, ok := slices.BinarySearch(in, a)
	return ok
}

// Merge returns the union of the two sets (strong queuing write rule).
// When other adds no atom it returns the receiver itself, allocating
// nothing: Info values are immutable, so cells may share one.
func (in Info) Merge(other Info) Info {
	if len(other) == 0 {
		return in
	}
	if len(in) == 0 {
		return append(Info(nil), other...)
	}
	// Skip the common prefix in which every atom of other is already in
	// in; if that covers other, the union is in.
	i, j := 0, 0
	for i < len(in) && j < len(other) && in[i] <= other[j] {
		if in[i] == other[j] {
			j++
		}
		i++
	}
	if j == len(other) {
		return in
	}
	out := make(Info, i, len(in)+len(other)-j)
	copy(out, in[:i])
	for i < len(in) && j < len(other) {
		switch {
		case in[i] < other[j]:
			out = append(out, in[i])
			i++
		case in[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, in[i])
			i++
			j++
		}
	}
	out = append(out, in[i:]...)
	out = append(out, other[j:]...)
	return out
}

// NewInfo builds a normalised (sorted, deduplicated) information set.
func NewInfo(atoms ...int64) Info {
	if len(atoms) == 0 {
		return nil
	}
	s := append([]int64(nil), atoms...)
	slices.Sort(s)
	return Info(slices.Compact(s))
}

// Machine is a GSM instance: the engine's shared-memory runtime over
// Info-valued cells with strong-queuing merge commit.
type Machine struct {
	engine.Mem[Info]
	trace *trace.Trace
}

// Ctx is the per-processor handle inside a GSM phase (Proc, Read, Write;
// Op is admissible but free — GSM local computation costs nothing).
type Ctx = engine.MemCtx[Info]

// Config parameterises a GSM machine.
type Config struct {
	// P is the number of processors.
	P int
	// Alpha, Beta, Gamma are the GSM parameters (all ≥ 1).
	Alpha, Beta, Gamma int64
	// N is the input size, for round classification (a round is a phase of
	// time O(μn/(λp))).
	N int
	// Cells is the shared-memory size.
	Cells int
	// Workers is validated (it must be ≥ 0) and has no effect on how
	// the machine runs: every phase runs its bodies on the calling
	// goroutine.
	Workers int
}

// New constructs a GSM machine with empty cells.
func New(c Config) (*Machine, error) {
	if c.Alpha < 1 || c.Beta < 1 || c.Gamma < 1 {
		return nil, fmt.Errorf("gsm: parameters must be ≥ 1: α=%d β=%d γ=%d",
			c.Alpha, c.Beta, c.Gamma)
	}
	p := cost.Params{G: 1, P: c.P, Alpha: c.Alpha, Beta: c.Beta, Gamma: c.Gamma}
	if err := engine.ValidateConfig("gsm", p, c.N, c.Cells, c.Workers, false); err != nil {
		return nil, err
	}
	m := &Machine{}
	m.InitMem(gsmModel{m}, p, c.N, c.Cells)
	return m, nil
}

// MustNew is New but panics on configuration errors.
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
	m.trace = trace.Shared(m.P(), m.Data, infoKey)
	m.AddObserver(m.trace)
}

// TraceLog returns the recorded trace, or nil if tracing was off.
func (m *Machine) TraceLog() *trace.Trace { return m.trace }

// Mu and Lambda return the derived big-step parameters.
func (m *Machine) Mu() int64     { return m.Params().Mu() }
func (m *Machine) Lambda() int64 { return m.Params().Lambda() }

// Gamma returns the initial inputs-per-cell parameter.
func (m *Machine) Gamma() int64 { return m.Params().Gamma }

// LoadInputs places n input atoms into cells under the γ-per-cell initial
// distribution: cell i receives atoms for inputs [iγ, (i+1)γ). Atom encoding
// is inputAtom(index, value). Not charged.
func (m *Machine) LoadInputs(values []int64) error {
	if len(values) != m.N() {
		return fmt.Errorf("gsm: LoadInputs got %d values, want N=%d", len(values), m.N())
	}
	g := int(m.Gamma())
	cells := m.Data()
	need := (m.N() + g - 1) / g
	if need > len(cells) {
		return fmt.Errorf("gsm: %d cells needed for n=%d γ=%d, have %d",
			need, m.N(), g, len(cells))
	}
	for i, v := range values {
		c := i / g
		cells[c] = cells[c].Merge(NewInfo(InputAtom(i, v)))
	}
	return nil
}

// InputAtom encodes "input i has value v" as an information atom.
func InputAtom(i int, v int64) int64 { return int64(i)<<8 | (v & 0xff) }

// AtomInput decodes an input atom.
func AtomInput(a int64) (i int, v int64) { return int(a >> 8), a & 0xff }

// Peek returns the information set of a cell (host-side, not charged). An
// out-of-range address is a host-side bug: it records a machine error
// (first error wins) and returns nil, so algorithm mistakes cannot be
// masked by phantom empty sets.
func (m *Machine) Peek(addr int) Info {
	cells := m.Data()
	if addr < 0 || addr >= len(cells) {
		m.RecordErr(fmt.Errorf("gsm: Peek out of range: cell %d of %d", addr, len(cells)))
		return nil
	}
	return cells[addr] //lint:colescape-ok Peek hands out the committed cell's set; Info is immutable by convention (Merge copies on write)
}

// ErrViolation wraps GSM memory-access-rule violations.
var ErrViolation = errors.New("gsm: memory access rule violation")

// gsmModel binds the engine's shared-memory runtime to the GSM:
// Info-valued cells, the strong-queuing merge commit, and big-step
// accounting.
type gsmModel struct{ m *Machine }

func (md gsmModel) Name() string     { return "GSM" }
func (md gsmModel) Entity() string   { return "processor" }
func (md gsmModel) Prefix() string   { return "gsm" }
func (md gsmModel) Violation() error { return ErrViolation }

// Apply merges the phase's writes into the cells, a run cell by cell and
// a fill run's one value into each of its cells (strong queuing: set
// union is order-insensitive, so the merged contents are deterministic).
func (md gsmModel) Apply(mem []Info, addrs []int32, vals []Info) {
	for i, j := 0, 0; i < len(addrs); {
		a, n, next, fill := engine.RunFill(addrs, i)
		cells := mem[a : int(a)+n]
		if fill {
			for k, c := range cells {
				cells[k] = c.Merge(vals[j])
			}
			j++
		} else {
			for k, c := range cells {
				cells[k] = c.Merge(vals[j+k])
			}
			j += n
		}
		i = next
	}
}

func (md gsmModel) Render(in Info) string { return infoKey(in) }

// infoKey renders an information set as its comma-separated atoms, "∅"
// when empty.
func infoKey(in Info) string {
	if len(in) == 0 {
		return "∅"
	}
	var b strings.Builder
	b.Grow(4 * len(in)) // room for elements below 1000 and their commas
	var num [20]byte
	for i, a := range in {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(num[:0], a, 10))
	}
	return b.String()
}

// PhaseCost charges μ · max(⌈m_rw/α⌉, ⌈κ/β⌉) big-steps (at least one,
// since computation is free but a phase is a unit).
func (md gsmModel) PhaseCost(o engine.Outcome) cost.PhaseCost {
	pr := md.m.Params()
	kappa := max(o.KRead, o.KWrite)
	bs := max(ceilDiv(o.MaxRW, pr.Alpha), ceilDiv(kappa, pr.Beta), 1)
	t := cost.Time(pr.Mu() * bs)
	return cost.PhaseCost{
		MaxRW:      o.MaxRW,
		Contention: kappa,
		BigSteps:   bs,
		Time:       t,
		IsRound:    t <= cost.GSMRoundBudget(pr, md.m.N()),
	}
}

// --- Claim 2.1 emulation adapters -----------------------------------------
//
// Each adapter takes the per-phase accounting of a run on a weaker model and
// computes the time the same computation would take on the GSM with the
// parameters named in Claim 2.1. The paper's claim is that the GSM time is
// at most a constant times the source-model time; tests assert it on real
// runs.

// EmulateQSM returns the GSM(n, α=1, β=g, γ=1) time of executing the phases
// of a QSM report. A QSM phase costing max(m_op, g·m_rw, κ) becomes a GSM
// phase of max(⌈m_rw/1⌉, ⌈κ/g⌉) big-steps of μ = g time.
func EmulateQSM(r *cost.Report) cost.Time {
	g := r.Params.G
	var total cost.Time
	for _, ph := range r.Phases {
		b := max(ph.MaxRW, ceilDiv(ph.Contention, g))
		if b < 1 {
			b = 1
		}
		total += cost.Time(g * b)
	}
	return total
}

// EmulateSQSM returns the GSM(n, α=1, β=1, γ=1) time of executing the phases
// of an s-QSM report; Claim 2.1(2) states T_s-QSM = Ω(g · T_GSM(n,1,1,1)).
func EmulateSQSM(r *cost.Report) cost.Time {
	var total cost.Time
	for _, ph := range r.Phases {
		b := max(ph.MaxRW, ph.Contention)
		if b < 1 {
			b = 1
		}
		total += cost.Time(b)
	}
	return total
}

// EmulateBSP returns the GSM(n, α=L/g, β=L/g, γ=n/p) time of executing the
// supersteps of a BSP report; Claim 2.1(3) states
// T_BSP = Ω(g · T_GSM(n, L/g, L/g, n/p)). Each superstep routing an
// h-relation becomes a phase with m_rw = κ = h.
func EmulateBSP(r *cost.Report) cost.Time {
	lg := r.Params.L / r.Params.G
	if lg < 1 {
		lg = 1
	}
	var total cost.Time
	for _, ph := range r.Phases {
		b := ceilDiv(ph.MaxRW, lg)
		if b < 1 {
			b = 1
		}
		total += cost.Time(lg * b)
	}
	return total
}

// RoundsPreserved checks the rounds half of Claim 2.1 (items 5–7) on a
// concrete run: every round of the source-model report, emulated on the
// GSM with the given parameters, still fits the GSM round budget (so the
// GSM round count is at most a constant times the source's). The per-phase
// emulated time is μ·max(⌈m_rw/α⌉, ⌈κ/β⌉); slack absorbs the claim's
// constant (a BSP round becomes ≤ 2 GSM rounds).
func RoundsPreserved(r *cost.Report, alpha, beta, gamma int64, slack int64) bool {
	pr := cost.Params{G: 1, P: r.Params.P, Alpha: alpha, Beta: beta, Gamma: gamma}
	budget := cost.Time(slack) * cost.GSMRoundBudget(pr, r.N)
	mu := pr.Mu()
	for _, ph := range r.Phases {
		if !ph.IsRound {
			continue // only rounds of the source must map to rounds
		}
		b := max(ceilDiv(ph.MaxRW, alpha), ceilDiv(ph.Contention, beta))
		if b < 1 {
			b = 1
		}
		if cost.Time(mu*b) > budget {
			return false
		}
	}
	return true
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
