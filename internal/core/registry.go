package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/boolor"
	"repro/internal/bsp"
	"repro/internal/compaction"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/gsm"
	"repro/internal/gsmalg"
	"repro/internal/parity"
	"repro/internal/prefix"
	"repro/internal/qsm"
	"repro/internal/sortrank"
	"repro/internal/workload"
)

// Family groups the machine models by their construction/run interface.
type Family int

const (
	// FamilyShared is the QSM family (qsm, sqsm, crqw, qsmgd).
	FamilyShared Family = iota
	// FamilyBSP is the distributed-memory BSP.
	FamilyBSP
	// FamilyGSM is the paper's lower-bound model.
	FamilyGSM
)

// String names the family for error messages.
func (f Family) String() string {
	switch f {
	case FamilyShared:
		return "shared-memory"
	case FamilyBSP:
		return "bsp"
	default:
		return "gsm"
	}
}

// Point is one registry point: a model, an algorithm, the machine axes
// and the workload seed. A zero axis means the model default
// (WithDefaults). Table 1 rows, the parameter and theorem sweeps, sweep
// cells and the parsim single run all execute as points.
type Point struct {
	Model, Alg string
	// N is the input size; P the processor/component count (0 = n).
	N, P int
	// G, D, L parameterize the QSM/QSM(g,d)/BSP cost rules.
	G, D, L int64
	// Alpha, Beta, Gamma parameterize the GSM.
	Alpha, Beta, Gamma int64
	// Fanin is the tree fan-in of the fan-in-parameterized algorithms
	// (the group width of parity-gadget).
	Fanin int
	Seed  int64
	// algSeed seeds the algorithm's own RNG (the dart throws). Execute
	// derives it once: the point seed on a fault-free run, seed+1 under a
	// fault plan, whose RNG fault.NewPlan draws from the seed itself.
	algSeed int64
}

// WithDefaults fills zero axes with the parsim defaults.
func (pt Point) WithDefaults() Point {
	if pt.P == 0 {
		pt.P = pt.N
	}
	def := func(v *int64, d int64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&pt.G, 4)
	def(&pt.D, 2)
	def(&pt.L, 16)
	def(&pt.Alpha, 2)
	def(&pt.Beta, 2)
	def(&pt.Gamma, 1)
	if pt.Fanin == 0 {
		pt.Fanin = 2
	}
	return pt
}

// ModelSpec is one registry entry: a machine model the sweep (and the
// parsim CLI, which derives its -model usage string from this table) can
// construct.
type ModelSpec struct {
	// Name is the CLI/grid spelling.
	Name string
	// Family selects the construction and run interface.
	Family Family
	// Rule is the cost rule of shared-family models.
	Rule cost.Rule
	// ChaosModel reports whether Execute accepts a fault plan on this
	// model (everything except qsmgd).
	ChaosModel bool
}

// modelRegistry is the single source of truth for -model dispatch. Order
// is the usage-string order.
var modelRegistry = []ModelSpec{
	{Name: "qsm", Family: FamilyShared, Rule: cost.RuleQSM, ChaosModel: true},
	{Name: "sqsm", Family: FamilyShared, Rule: cost.RuleSQSM, ChaosModel: true},
	{Name: "crqw", Family: FamilyShared, Rule: cost.RuleCRQW, ChaosModel: true},
	{Name: "qsmgd", Family: FamilyShared, Rule: cost.RuleQSMGD, ChaosModel: false},
	{Name: "bsp", Family: FamilyBSP, ChaosModel: true},
	{Name: "gsm", Family: FamilyGSM, ChaosModel: true},
}

// ModelByName looks a model up by its CLI spelling.
func ModelByName(name string) (ModelSpec, bool) {
	for _, ms := range modelRegistry {
		if ms.Name == name {
			return ms, true
		}
	}
	return ModelSpec{}, false
}

// ModelNames returns the model spellings in registry order.
func ModelNames() []string {
	out := make([]string, len(modelRegistry))
	for i, ms := range modelRegistry {
		out[i] = ms.Name
	}
	return out
}

// ModelUsage is the -model flag usage string, derived from the registry
// so the help text cannot drift from what the dispatcher accepts.
func ModelUsage() string { return strings.Join(ModelNames(), " | ") }

// sharedRunner runs a shared-memory algorithm on a machine whose input
// is already loaded.
type sharedRunner func(pt Point, m *qsm.Machine, in []int64) (runOutcome, error)

// runOutcome is what an algorithm runner reports back to Execute.
type runOutcome struct {
	// summary is the human-readable answer line(s) parsim prints.
	summary string
	// verified is the host-side oracle verdict.
	verified bool
}

// AlgSpec is one registry entry: a §8 algorithm the sweep (and the parsim
// CLI, which derives its -alg usage string from this table) can run.
type AlgSpec struct {
	// Name is the CLI/grid spelling.
	Name string
	// Family is the machine family the algorithm runs on.
	Family Family
	// FaultAlg is the internal/chaos algorithm this maps to under fault
	// injection ("" = no fault-mode runner).
	FaultAlg string
	// sparse selects the LAC input (n/4 tagged items) over random bits.
	sparse bool
	// procs overrides the shared-memory processor count (nil = point P).
	procs func(pt Point) int
	// priv is the BSP private-memory requirement.
	priv func(pt Point) int
	// The family-specific runner; exactly one is set. Each gets the
	// machine with the input in already loaded.
	runShared sharedRunner
	runBSP    func(pt Point, m *bsp.Machine, in []int64) (runOutcome, error)
	runGSM    func(pt Point, m *gsm.Machine, in []int64) (runOutcome, error)
	// degraded is the crash-masking variant of a shared-memory runner,
	// run under a degraded fault plan (nil = none).
	degraded sharedRunner
}

// Procs is the processor count the algorithm's machine is built with at
// the (defaulted) point: one GSM processor per γ inputs, P otherwise
// unless the algorithm sets its own need.
func (as AlgSpec) Procs(pt Point) int {
	switch {
	case as.procs != nil:
		return as.procs(pt)
	case as.Family == FamilyGSM:
		gamma := int(max(pt.Gamma, 1))
		return (pt.N + gamma - 1) / gamma
	}
	return pt.P
}

// input is the seeded workload the algorithm runs on.
func (as AlgSpec) input(pt Point) ([]int64, error) {
	if as.sparse {
		return workload.Sparse(pt.Seed, pt.N, pt.N/4)
	}
	return workload.Bits(pt.Seed, pt.N), nil
}

// algRegistry is the single source of truth for -alg dispatch. Order is
// the usage-string order (shared, then bsp, then gsm algorithms).
var algRegistry = []AlgSpec{
	{Name: "parity", Family: FamilyShared, FaultAlg: "parity",
		runShared: parityTree(parity.TreeQSM), degraded: parityTree(parity.TreeQSMDegraded)},
	{Name: "parity-gadget", Family: FamilyShared, procs: gadgetProcs, runShared: runGadgetParity},
	{Name: "or", Family: FamilyShared, FaultAlg: "or", runShared: runORRead},
	{Name: "or-contention", Family: FamilyShared, FaultAlg: "or",
		runShared: orContention(boolor.ContentionTree), degraded: orContention(boolor.ContentionTreeDegraded)},
	{Name: "or-rounds", Family: FamilyShared, runShared: runORRounds},
	{Name: "prefix", Family: FamilyShared, runShared: runPrefix},
	{Name: "lac-det", Family: FamilyShared, sparse: true, runShared: runDetLAC},
	{Name: "lac-dart", Family: FamilyShared, FaultAlg: "lac", sparse: true,
		runShared: dartLAC(compaction.DartLAC), degraded: dartLAC(compaction.DartLACDegraded)},
	{Name: "listrank", Family: FamilyShared,
		procs:     func(pt Point) int { return 2 * (pt.N + 1) },
		runShared: runListRank},
	{Name: "bsp-parity", Family: FamilyBSP, FaultAlg: "parity",
		priv: func(pt Point) int { return parity.PrivNeedBSP(pt.N, pt.P) }, runBSP: runBSPParity},
	{Name: "bsp-or", Family: FamilyBSP, FaultAlg: "or",
		priv: func(pt Point) int { return boolor.PrivNeedBSP(pt.N, pt.P) }, runBSP: runBSPOR},
	{Name: "bsp-lac-dart", Family: FamilyBSP, sparse: true,
		priv: func(pt Point) int { return compaction.PrivNeedDartBSP(pt.N, pt.P) }, runBSP: runBSPDartLAC},
	{Name: "bsp-lac-det", Family: FamilyBSP, sparse: true,
		priv: func(pt Point) int { return compaction.PrivNeedDetLACBSP(pt.N, pt.P, pt.Fanin) }, runBSP: runBSPDetLAC},
	{Name: "gsm-parity", Family: FamilyGSM, FaultAlg: "parity", runGSM: runGSMParity},
	{Name: "gsm-or", Family: FamilyGSM, FaultAlg: "or", runGSM: runGSMOR},
}

// Algs returns the registry in usage order.
func Algs() []AlgSpec { return algRegistry }

// AlgByName looks an algorithm up by its CLI spelling.
func AlgByName(name string) (AlgSpec, bool) {
	for _, as := range algRegistry {
		if as.Name == name {
			return as, true
		}
	}
	return AlgSpec{}, false
}

// AlgNames returns the algorithm spellings in registry order.
func AlgNames() []string {
	out := make([]string, len(algRegistry))
	for i, as := range algRegistry {
		out[i] = as.Name
	}
	return out
}

// AlgUsage is the -alg flag usage string, derived from the registry so
// the help text cannot drift from what the dispatcher accepts.
func AlgUsage() string { return strings.Join(AlgNames(), " | ") }

// Faults attaches a seeded fault plan to a run.
type Faults struct {
	// Plan is the injector, consulted once per phase.
	Plan *fault.Plan
	// Degraded masks crashes and re-partitions the work over the
	// survivors. Only shared-memory algorithms have degraded runners;
	// BSP and GSM runs stay strict.
	Degraded bool
}

// ErrUnverified marks a completed run whose answer failed the host-side
// oracle. Execute is the one place that checks the verdict.
var ErrUnverified = errors.New("answer failed the host-side oracle")

// Runner is the run context of a §8 algorithm run: what the caller hands
// the machine beyond the point itself. The zero Runner runs fault-free on
// the built-in merge at GOMAXPROCS workers and records no event log.
type Runner struct {
	// Workers caps simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Backend is the commit-barrier backend (nil = the built-in merge),
	// owned by the caller and only borrowed by the machine.
	Backend engine.Backend
	// Faults is the fault plan (nil = fault-free).
	Faults *Faults
	// Events records the observer event log into Outcome.Events.
	Events bool
}

// Outcome is the result of executing one point.
type Outcome struct {
	// Summary is the human-readable answer line(s).
	Summary string
	// Report is the machine's accumulated cost report (nil when the run
	// errored before it completed).
	Report *cost.Report
	// Events is the observer event log (Runner.Events runs only),
	// recorded as structured events; Stream renders it.
	Events *engine.EventLog
	// Faults is the fault report (runs with a plan only).
	Faults *fault.Report
}

// Stream renders the observer event stream on demand ("" when no event
// log was recorded).
func (o *Outcome) Stream() string {
	if o.Events == nil {
		return ""
	}
	return o.Events.String()
}

// Execute runs one point: it resolves model and algorithm in the
// registries, constructs the machine, attaches the run context's
// observer, backend and fault plan, loads the seeded input, runs the
// algorithm, and checks the oracle. It is the only code that builds a
// machine for a §8 algorithm run, faulted or not.
//
// An error before the machine is built returns a nil Outcome. After
// that, the Outcome comes back beside any error, so a poisoned run still
// yields its event log and fault report. A completed run whose answer
// fails the oracle returns its full Outcome beside an error wrapping
// ErrUnverified.
func (r Runner) Execute(pt Point) (*Outcome, error) {
	pt = pt.WithDefaults()
	ms, ok := ModelByName(pt.Model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q (want %s)", pt.Model, ModelUsage())
	}
	as, ok := AlgByName(pt.Alg)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q (want %s)", pt.Alg, AlgUsage())
	}
	if as.Family != ms.Family {
		return nil, fmt.Errorf("algorithm %q is a %s algorithm and does not run on model %q (%s)",
			pt.Alg, as.Family, pt.Model, ms.Family)
	}
	pt.algSeed = pt.Seed
	runShared, degraded := as.runShared, false
	if fl := r.Faults; fl != nil {
		if !ms.ChaosModel {
			return nil, fmt.Errorf("model %q does not take fault injection", pt.Model)
		}
		pt.algSeed = pt.Seed + 1
		if degraded = fl.Degraded && ms.Family == FamilyShared; degraded {
			if as.degraded == nil {
				return nil, fmt.Errorf("algorithm %q has no degraded runner", pt.Alg)
			}
			runShared = as.degraded
		}
	}
	// The machine is built before the input, so a bad size fails there.
	var m engine.Machine
	var run func(in []int64) (runOutcome, error)
	switch ms.Family {
	case FamilyShared:
		mm, err := qsm.New(qsm.Config{
			Rule: ms.Rule, P: as.Procs(pt), G: pt.G, D: pt.D, N: pt.N, MemCells: pt.N, Workers: r.Workers,
		})
		if err != nil {
			return nil, err
		}
		m, run = mm, func(in []int64) (runOutcome, error) {
			if err := mm.Load(0, in); err != nil {
				return runOutcome{}, err
			}
			return runShared(pt, mm, in)
		}
	case FamilyBSP:
		mm, err := bsp.New(bsp.Config{
			P: pt.P, G: pt.G, L: pt.L, N: pt.N, PrivCells: as.priv(pt), Workers: r.Workers,
		})
		if err != nil {
			return nil, err
		}
		m, run = mm, func(in []int64) (runOutcome, error) {
			if err := mm.Scatter(in); err != nil {
				return runOutcome{}, err
			}
			return as.runBSP(pt, mm, in)
		}
	default:
		procs := as.Procs(pt)
		mm, err := gsm.New(gsm.Config{
			P: procs, Alpha: pt.Alpha, Beta: pt.Beta, Gamma: max(pt.Gamma, 1), N: pt.N,
			Cells: gsmalg.CellsNeedGather(procs), Workers: r.Workers,
		})
		if err != nil {
			return nil, err
		}
		m, run = mm, func(in []int64) (runOutcome, error) {
			if err := mm.LoadInputs(in); err != nil {
				return runOutcome{}, err
			}
			return as.runGSM(pt, mm, in)
		}
	}

	out := &Outcome{}
	if r.Events {
		out.Events = &engine.EventLog{}
		m.AddObserver(out.Events)
	}
	if r.Backend != nil {
		m.SetBackend(r.Backend)
	}
	if r.Faults != nil {
		m.InjectFaults(r.Faults.Plan, engine.RetryPolicy{}, degraded)
	}
	in, err := as.input(pt)
	var ro runOutcome
	if err == nil {
		ro, err = run(in)
	}
	// A machine poisoned after the runner returned (e.g. by a bad final
	// Peek) must surface as an error, not render a poisoned report.
	if err == nil {
		err = m.Err()
	}
	if r.Faults != nil {
		out.Faults = r.Faults.Plan.Report(m)
	}
	if err != nil {
		return out, err
	}
	out.Summary, out.Report = ro.summary, m.Report()
	if !ro.verified {
		return out, fmt.Errorf("%s on %s at n=%d: %w: %s", pt.Alg, pt.Model, pt.N, ErrUnverified, ro.summary)
	}
	return out, nil
}

// answer grades a computed value against the oracle's.
func answer(what string, got, want int64, err error) (runOutcome, error) {
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{
		summary:  fmt.Sprintf("%s = %d (reference %d)", what, got, want),
		verified: got == want,
	}, nil
}

// peekAnswer grades the value a shared-memory algorithm left at out.
func peekAnswer(m *qsm.Machine, what string, out int, err error, want int64) (runOutcome, error) {
	if err != nil {
		return runOutcome{}, err
	}
	return answer(what, m.Peek(out), want, nil)
}

// compacted grades a LAC run that reports how many items it placed.
func compacted(pt Point, k int, err error) (runOutcome, error) {
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{summary: fmt.Sprintf("compacted %d items", k), verified: k == pt.N/4}, nil
}

// --- shared-memory runners -----------------------------------------------------

// parityTree, orContention and dartLAC take the algorithm as a
// parameter, so an algorithm's strict and crash-masking (degraded)
// runners are one body.
func parityTree(tree func(m *qsm.Machine, base, n, fanin int) (int, error)) sharedRunner {
	return func(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
		out, err := tree(m, 0, pt.N, pt.Fanin)
		return peekAnswer(m, "parity", out, err, workload.Parity(in))
	}
}

// orContention runs the contention tree at fan-in max(g, fan-in): g is
// the fan-in that balances κ against g, and the default fan-in of 2 is
// the floor a tree needs.
func orContention(tree func(m *qsm.Machine, base, n, fanin int) (int, error)) sharedRunner {
	return func(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
		out, err := tree(m, 0, pt.N, max(int(pt.G), pt.Fanin))
		return peekAnswer(m, "OR", out, err, workload.Or(in))
	}
}

func dartLAC(lac func(m *qsm.Machine, rng *rand.Rand, base, n int) (*compaction.DartResult, error)) sharedRunner {
	return func(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
		res, err := lac(m, rand.New(rand.NewSource(pt.algSeed)), 0, pt.N)
		if err != nil {
			return runOutcome{}, err
		}
		summary := fmt.Sprintf("placed %d items in %d cells over %d rounds",
			len(res.Placed), res.OutSize, res.Rounds)
		if len(res.Placed) > 0 {
			lo, hi := math.MaxInt, math.MinInt
			for _, cell := range res.Placed { //lint:maporder-ok min and max are order-independent
				lo, hi = min(lo, cell), max(hi, cell)
			}
			summary += fmt.Sprintf("\noccupied cells span [%d, %d]", lo, hi)
		}
		return runOutcome{summary: summary, verified: compaction.VerifyPlacement(in, res) == nil}, nil
	}
}

// gadgetProcs is the gadget's processor need: m·2^m checkers for each
// group of m = Fanin input bits (capped so the shift cannot overflow;
// GadgetQSM rejects an out-of-range group width itself).
func gadgetProcs(pt Point) int {
	gb := min(pt.Fanin, parity.GadgetMaxGroupBits)
	return ((pt.N + gb - 1) / gb) * (gb << uint(gb))
}

func runGadgetParity(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
	out, err := parity.GadgetQSM(m, 0, pt.N, pt.Fanin)
	return peekAnswer(m, "parity", out, err, workload.Parity(in))
}

func runORRead(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
	out, err := boolor.ReadTree(m, 0, pt.N, pt.Fanin)
	return peekAnswer(m, "OR", out, err, workload.Or(in))
}

func runORRounds(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
	out, err := boolor.RoundsQSM(m, 0, pt.N)
	return peekAnswer(m, "OR", out, err, workload.Or(in))
}

func runPrefix(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
	out, err := prefix.RunQSM(m, 0, pt.N, pt.Fanin)
	if err != nil {
		return runOutcome{}, err
	}
	var want int64
	for _, b := range in {
		want += b
	}
	got := m.Peek(out + pt.N - 1)
	return runOutcome{summary: fmt.Sprintf("total = %d", got), verified: got == want}, nil
}

func runDetLAC(pt Point, m *qsm.Machine, _ []int64) (runOutcome, error) {
	_, k, err := compaction.DetLAC(m, 0, pt.N, pt.Fanin)
	return compacted(pt, k, err)
}

func runListRank(pt Point, m *qsm.Machine, in []int64) (runOutcome, error) {
	got, err := sortrank.ParityViaList(m, 0, pt.N)
	return answer("parity via list ranking", got, workload.Parity(in), err)
}

// --- BSP runners ---------------------------------------------------------------

func runBSPParity(pt Point, m *bsp.Machine, in []int64) (runOutcome, error) {
	got, err := parity.RunBSP(m, pt.N, pt.Fanin)
	return answer("parity", got, workload.Parity(in), err)
}

func runBSPOR(pt Point, m *bsp.Machine, in []int64) (runOutcome, error) {
	got, err := boolor.RunBSP(m, pt.N, pt.Fanin)
	return answer("OR", got, workload.Or(in), err)
}

func runBSPDartLAC(pt Point, m *bsp.Machine, _ []int64) (runOutcome, error) {
	res, err := compaction.DartLACBSP(m, rand.New(rand.NewSource(pt.algSeed)), pt.N)
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{
		summary: fmt.Sprintf("placed %d items in %d slots over %d rounds",
			len(res.Placed), res.OutSize, res.Rounds),
		verified: len(res.Placed) == pt.N/4,
	}, nil
}

func runBSPDetLAC(pt Point, m *bsp.Machine, _ []int64) (runOutcome, error) {
	_, h, err := compaction.DetLACBSP(m, pt.N, pt.Fanin)
	return compacted(pt, h, err)
}

// --- GSM runners ---------------------------------------------------------------

func runGSMParity(pt Point, m *gsm.Machine, in []int64) (runOutcome, error) {
	got, err := gsmalg.ParityGSM(m, pt.N, pt.Fanin)
	return answer("parity", got, workload.Parity(in), err)
}

func runGSMOR(pt Point, m *gsm.Machine, in []int64) (runOutcome, error) {
	got, err := gsmalg.ORGSM(m, pt.N, pt.Fanin)
	return answer("OR", got, workload.Or(in), err)
}
