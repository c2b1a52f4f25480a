// Package repro is a full, executable reproduction of MacKenzie &
// Ramachandran, "Computational Bounds for Fundamental Problems on
// General-Purpose Parallel Models" (SPAA 1998).
//
// The paper proves lower bounds — and gives matching or near-matching
// algorithms — for Linear Approximate Compaction, OR and Parity on four
// machine models: the shared-memory QSM and s-QSM, the distributed-memory
// BSP, and the stronger lower-bound model GSM. This package is the public
// face of the reproduction:
//
//   - Machine constructors (NewQSM, NewSQSM, NewCRQW, NewBSP, NewGSM) build
//     cost-accurate simulators charging exactly the paper's phase/superstep
//     cost formulas, with contention accounting and round classification.
//   - Problem runners (ParityTree, ParityGadget, ORContentionTree, …)
//     execute the Section 8 upper-bound algorithms on those simulators and
//     return verified answers together with full cost reports.
//   - Bound evaluators (Bounds, BoundByID) expose every Table 1 cell as an
//     executable formula.
//   - The experiment engine (Experiments, RunExperiment, RenderTables)
//     regenerates the paper's evaluation: measured algorithm cost versus
//     predicted bound across input sweeps, for all four sub-tables.
//   - The proof machinery (package internal/adversary, internal/boolfn) is
//     reachable through AnalyzeKnowledge and the Fn Boolean-function
//     algebra for degree-argument experiments.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package repro

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/boolfn"
	"repro/internal/boolor"
	"repro/internal/bounds"
	"repro/internal/broadcast"
	"repro/internal/bsp"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gsm"
	"repro/internal/gsmalg"
	"repro/internal/parity"
	"repro/internal/prefix"
	"repro/internal/qsm"
	"repro/internal/sortrank"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Machine and accounting types, re-exported for users of the public API.
type (
	// Machine is the model-generic read side every simulator satisfies
	// (P, N, Err, Report, AddObserver). Code that only inspects a run —
	// sweep drivers, renderers, observers — should accept a Machine
	// rather than a concrete machine type.
	Machine = engine.Machine
	// Observer receives the structured per-phase event stream of a
	// machine: phase starts, committed requests in deterministic order,
	// and phase costs. The stream is byte-identical for every Workers
	// setting.
	Observer = engine.Observer
	// Request is one observed memory request or message send.
	Request = engine.Request
	// EventLog is a ready-made Observer that records one record per
	// committed phase and renders it to text lines, one per request, on
	// demand; attach one with Observe.
	EventLog = engine.EventLog
	// QSMMachine is a shared-memory machine of the QSM family (QSM, s-QSM,
	// QRQW, CRQW — selected by the constructor used).
	QSMMachine = qsm.Machine
	// QSMCtx is the per-processor handle inside a QSM phase.
	QSMCtx = qsm.Ctx
	// BSPMachine is a BSP machine.
	BSPMachine = bsp.Machine
	// BSPCtx is the per-component handle inside a superstep.
	BSPCtx = bsp.Ctx
	// GSMMachine is the paper's lower-bound model.
	GSMMachine = gsm.Machine
	// GSMCtx is the per-processor handle inside a GSM phase.
	GSMCtx = gsm.Ctx
	// Report aggregates phase costs, total model time, work and rounds.
	Report = cost.Report
	// PhaseCost is the per-phase cost record.
	PhaseCost = cost.PhaseCost
	// BoundEntry is one Table 1 cell (formula + provenance).
	BoundEntry = bounds.Entry
	// BoundArgs parameterises a bound formula.
	BoundArgs = bounds.Args
	// Experiment binds a Table 1 row to a measurement procedure.
	Experiment = core.Experiment
	// ExperimentResult is a completed sweep.
	ExperimentResult = core.Result
	// Fn is an exact Boolean/integer function on {0,1}^n with the degree
	// and certificate machinery of Section 2.5.
	Fn = boolfn.Fn
)

// NewQSM builds a QSM machine: phase cost max(m_op, g·m_rw, κ).
func NewQSM(p int, g int64, n, memCells int) (*QSMMachine, error) {
	return qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: g, N: n, MemCells: memCells})
}

// NewSQSM builds an s-QSM machine: phase cost max(m_op, g·m_rw, g·κ).
func NewSQSM(p int, g int64, n, memCells int) (*QSMMachine, error) {
	return qsm.New(qsm.Config{Rule: cost.RuleSQSM, P: p, G: g, N: n, MemCells: memCells})
}

// NewQRQW builds a QRQW PRAM (the QSM with g = 1).
func NewQRQW(p int, n, memCells int) (*QSMMachine, error) {
	return qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: 1, N: n, MemCells: memCells})
}

// NewCRQW builds a QSM variant with unit-time concurrent reads (read
// contention is free) — the model of the Θ(g·log n / log g) Parity row.
func NewCRQW(p int, g int64, n, memCells int) (*QSMMachine, error) {
	return qsm.New(qsm.Config{Rule: cost.RuleCRQW, P: p, G: g, N: n, MemCells: memCells})
}

// NewQSMGD builds a QSM(g,d) machine (the [10, 21] generalization; Claim
// 2.2): phase cost max(m_op, g·m_rw, d·κ). QSM(g,1) is the QSM and
// QSM(g,g) the s-QSM.
func NewQSMGD(p int, g, d int64, n, memCells int) (*QSMMachine, error) {
	return qsm.New(qsm.Config{Rule: cost.RuleQSMGD, P: p, G: g, D: d, N: n, MemCells: memCells})
}

// NewBSP builds a BSP machine: superstep cost max(w, g·h, L), L ≥ g.
func NewBSP(p int, g, l int64, n, privCells int) (*BSPMachine, error) {
	return bsp.New(bsp.Config{P: p, G: g, L: l, N: n, PrivCells: privCells})
}

// NewGSM builds the paper's lower-bound model with parameters α, β, γ.
func NewGSM(p int, alpha, beta, gamma int64, n, cells int) (*GSMMachine, error) {
	return gsm.New(gsm.Config{P: p, Alpha: alpha, Beta: beta, Gamma: gamma, N: n, Cells: cells})
}

// Observe attaches a fresh textual event log to a machine (any model) and
// returns it; call before running phases. The log records the structured
// per-phase event stream — phase starts, committed requests in
// deterministic order, and phase costs — and is identical for every
// Workers setting.
func Observe(m Machine) *EventLog {
	ev := &EventLog{}
	m.AddObserver(ev)
	return ev
}

// --- algorithms (Section 8 upper bounds) --------------------------------------

// ParityTree runs the k-ary XOR tree on a QSM-family machine over the bits
// at [base, base+n); returns the address of the result cell.
func ParityTree(m *QSMMachine, base, n, fanin int) (int, error) {
	return parity.TreeQSM(m, base, n, fanin)
}

// ParityGadget runs the contention-gadget parity tree (groups of groupBits
// bits resolved by checker processors); the QSM configuration is
// groupBits ≈ log₂ g, the CRQW configuration groupBits up to g.
func ParityGadget(m *QSMMachine, base, n, groupBits int) (int, error) {
	return parity.GadgetQSM(m, base, n, groupBits)
}

// ParityBSP runs the fan-in tree parity on a BSP machine over the
// block-distributed input and returns the answer.
func ParityBSP(m *BSPMachine, n, fanin int) (int64, error) {
	return parity.RunBSP(m, n, fanin)
}

// ParityBSPPrivCells returns the private memory ParityBSP needs.
func ParityBSPPrivCells(n, p int) int { return parity.PrivNeedBSP(n, p) }

// ORContentionTree runs the write-contention OR tree (fan-in g is the
// O((g/log g)·log n) deterministic QSM algorithm).
func ORContentionTree(m *QSMMachine, base, n, fanin int) (int, error) {
	return boolor.ContentionTree(m, base, n, fanin)
}

// ORReadTree runs the k-ary read-combine OR tree (the s-QSM algorithm).
func ORReadTree(m *QSMMachine, base, n, fanin int) (int, error) {
	return boolor.ReadTree(m, base, n, fanin)
}

// ORBSP runs the BSP OR tree and returns the answer.
func ORBSP(m *BSPMachine, n, fanin int) (int64, error) {
	return boolor.RunBSP(m, n, fanin)
}

// ORBSPPrivCells returns the private memory ORBSP needs.
func ORBSPPrivCells(n, p int) int { return boolor.PrivNeedBSP(n, p) }

// ORRandomized runs the randomized low-contention OR (the Section 8
// adaptation of [9]; run on a CRQW machine for the w.h.p.
// O(g·log n/log log n) shape).
func ORRandomized(m *QSMMachine, seed int64, base, n int) (int, error) {
	return boolor.RandomizedOR(m, newRand(seed), base, n)
}

// ParityGSM computes parity on the GSM lower-bound model itself via the
// α-ary information gather tree (the upper-bound side of Theorem 3.1).
// Load the machine with GSMMachine.LoadInputs first.
func ParityGSM(m *GSMMachine, n, fanin int) (int64, error) {
	return gsmalg.ParityGSM(m, n, fanin)
}

// ORGSM computes OR on the GSM by the same information gather.
func ORGSM(m *GSMMachine, n, fanin int) (int64, error) {
	return gsmalg.ORGSM(m, n, fanin)
}

// GSMGatherCells returns the cell count a GSM machine needs for the
// gather-tree algorithms over r = ⌈n/γ⌉ loaded cells.
func GSMGatherCells(r int) int { return gsmalg.CellsNeedGather(r) }

// Broadcast spreads the value in cell src to n fresh cells on a QSM-family
// machine using the [1] queued-read doubling with the given fan-out
// (fan-out g is optimal on the QSM); returns the base of the n cells.
func Broadcast(m *QSMMachine, src, n, fanout int) (int, error) {
	return broadcast.RunQSM(m, src, n, fanout)
}

// LoadBalance redistributes the objects counted in cells [base, base+n)
// (counts ≤ maxPer each) so every destination gets O(1 + h/n); see
// internal/compaction.LoadBalance for the output layout.
func LoadBalance(m *QSMMachine, base, n, fanin, maxPer int) (out, h int, err error) {
	return compaction.LoadBalance(m, base, n, fanin, maxPer)
}

// PrefixSums computes inclusive prefix sums with a k-ary tree and returns
// the base of the n-cell result.
func PrefixSums(m *QSMMachine, base, n, fanin int) (int, error) {
	return prefix.RunQSM(m, base, n, fanin)
}

// CompactExact compacts the items of [base, base+n) stably into [out,
// out+k) via prefix sums (the deterministic Section 8 algorithm).
func CompactExact(m *QSMMachine, base, n, fanin int) (out, k int, err error) {
	return compaction.DetLAC(m, base, n, fanin)
}

// DartCompactionResult reports a randomized LAC run.
type DartCompactionResult = compaction.DartResult

// CompactDarts runs the randomized dart-throwing LAC of [9] (adapted):
// every item ends up in O(#items) space; see DartCompactionResult.
func CompactDarts(m *QSMMachine, seed int64, base, n int) (*DartCompactionResult, error) {
	return compaction.DartLAC(m, newRand(seed), base, n)
}

// ListRank computes list ranks by pointer jumping; returns the rank array
// base.
func ListRank(m *QSMMachine, base, n int) (int, error) {
	return sortrank.ListRankQSM(m, base, n)
}

// ParityViaListRanking demonstrates the paper's size-preserving reduction
// from Parity to list ranking.
func ParityViaListRanking(m *QSMMachine, base, n int) (int64, error) {
	return sortrank.ParityViaList(m, base, n)
}

// SampleSortBSP sorts the block-distributed input with one-round regular
// sample sort; returns the private offset of each component's sorted
// bucket (length at offset−1).
func SampleSortBSP(m *BSPMachine, n int) (int, error) {
	return sortrank.SampleSortBSP(m, n)
}

// SampleSortBSPPrivCells returns the private memory SampleSortBSP needs.
func SampleSortBSPPrivCells(n, p int) int { return sortrank.PrivNeedSampleSortBSP(n, p) }

// PaddedSortBSP sorts U[0,1] fixed-point values into a padded array of
// size padFactor·n distributed over the components (Section 6's Padded
// Sort); returns the private offset of each component's segment.
func PaddedSortBSP(m *BSPMachine, n, padFactor int) (int, error) {
	return compaction.PaddedSortBSP(m, n, padFactor)
}

// PaddedSortBSPPrivCells returns the private memory PaddedSortBSP needs.
func PaddedSortBSPPrivCells(n, p, padFactor int) int {
	return compaction.PrivNeedPaddedSortBSP(n, p, padFactor)
}

// Uniform01 returns the Padded Sort workload: n fixed-point U[0,1] draws
// with denominator Uniform01Denom.
func Uniform01(seed int64, n int) []int64 { return workload.Uniform01(seed, n) }

// Uniform01Denom is the fixed-point denominator of Uniform01 values.
const Uniform01Denom = workload.Denom01

// --- bounds and experiments ----------------------------------------------------

// Bounds returns every Table 1 cell as an executable formula with
// provenance.
func Bounds() []BoundEntry { return bounds.Registry }

// BoundByID looks up one Table 1 cell (e.g. "T2.Parity.det").
func BoundByID(id string) *BoundEntry { return bounds.ByID(id) }

// Experiments returns the registered experiments, one per Table 1 row.
func Experiments() []*Experiment { return core.Experiments() }

// RunExperiment executes one Table 1 row's sweep.
func RunExperiment(id string, seed int64) (*ExperimentResult, error) {
	e := core.ExperimentByID(id)
	if e == nil {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(seed)
}

// RenderTables regenerates all four sub-tables of Table 1 (measured vs
// predicted) as text.
func RenderTables(seed int64) (string, error) { return core.RenderAll(seed) }

// RenderExperiment formats one completed experiment.
func RenderExperiment(r *ExperimentResult) string { return core.RenderResult(r) }

// RenderTheoremSweeps renders the GSM-level theorem experiments (Theorem
// 3.1's gather shape and Theorem 6.3's GSM(h) relaxed rounds) that feed
// the Table 1 rows through Claim 2.1.
func RenderTheoremSweeps(seed int64) (string, error) { return core.TheoremSweeps(seed) }

// RenderParamSweeps renders the g and L/g parameter sweeps (the log g and
// log(L/g) denominators of Table 1) at fixed n.
func RenderParamSweeps(seed int64) (string, error) { return core.ParamSweeps(seed) }

// ExportTables runs every Table 1 experiment and returns the sweep points
// in a machine-readable format ("csv" or "json").
func ExportTables(seed int64, format string) (string, error) {
	results, err := core.RunAll(seed)
	if err != nil {
		return "", err
	}
	switch format {
	case "csv":
		return core.ExportCSV(results)
	case "json":
		return core.ExportJSON(results)
	default:
		return "", fmt.Errorf("repro: unknown export format %q (csv|json)", format)
	}
}

// ShapeOf fits a completed experiment's growth on the log₂ n axis,
// returning the measured and bound slopes (Θ rows have a constant ratio).
func ShapeOf(r *ExperimentResult) (core.Shape, error) { return core.ShapeOf(r) }

// --- proof machinery ------------------------------------------------------------

// ParityFn, ORFn and ANDFn expose the exact Boolean functions whose full
// degree (Fact 2.1/2.2) anchors Theorems 3.1 and 7.2.
func ParityFn(n int) *Fn { return boolfn.Parity(n) }

// ORFn returns the n-variable OR function.
func ORFn(n int) *Fn { return boolfn.OR(n) }

// ANDFn returns the n-variable AND function.
func ANDFn(n int) *Fn { return boolfn.AND(n) }

// MajorityFn returns the n-variable majority function.
func MajorityFn(n int) *Fn { return boolfn.Majority(n) }

// KnowledgeAnalysis is the exact Section 5 trace/knowledge ledger of an
// algorithm, computed by exhaustive input enumeration.
type KnowledgeAnalysis = adversary.Analysis

// TracedMachine is a machine that ran with tracing on (EnableTracing):
// QSMMachine, BSPMachine and GSMMachine all qualify.
type TracedMachine interface {
	Err() error
	TraceLog() *trace.Trace
}

// AnalyzeKnowledge runs a traced algorithm on all 2^n inputs and returns
// the exact Know/AffProc/AffCell/state-degree ledger of Section 5, with
// the machine dimensions read from the traces. On the GSM it measures the
// degrees Lemma 5.1 bounds; on the QSM and BSP it is the executable
// Theorem 3.3 information-spread argument (an input bit reaches at most
// fan-out^T entities in T phases).
func AnalyzeKnowledge[M TracedMachine](runner func(bits []int64) (M, error), n int) (*KnowledgeAnalysis, error) {
	return adversary.AnalyzeKnowledge(func(bits []int64) (adversary.TraceSource, error) {
		m, err := runner(bits)
		if err != nil {
			return nil, err
		}
		if err := m.Err(); err != nil {
			return nil, err
		}
		if tr := m.TraceLog(); tr != nil {
			return tr, nil
		}
		return nil, nil
	}, n)
}

// --- workloads -------------------------------------------------------------------

// RandomBits returns n seeded random bits (the Parity/OR workload).
func RandomBits(seed int64, n int) []int64 { return workload.Bits(seed, n) }

// SparseItems returns an n-cell array with h tagged items (the LAC
// workload).
func SparseItems(seed int64, n, h int) ([]int64, error) { return workload.Sparse(seed, n, h) }

// ReferenceParity and ReferenceOr compute the scalar reference answers.
func ReferenceParity(bits []int64) int64 { return workload.Parity(bits) }

// ReferenceOr returns the OR of the bit vector.
func ReferenceOr(bits []int64) int64 { return workload.Or(bits) }
