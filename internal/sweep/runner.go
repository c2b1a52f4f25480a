package sweep

import (
	"context"
	"time"

	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
)

// DefaultMaxCost is the default n·p footprint ceiling: large enough for
// the full Table 1 sweep (n up to 8192 with p = n), small enough that a
// runaway grid axis prunes to too-large records instead of hanging the
// harness.
const DefaultMaxCost = int64(1) << 27

// RunConfig carries the per-cell runner knobs.
type RunConfig struct {
	// MaxCost is the n·p footprint ceiling (0 = DefaultMaxCost).
	MaxCost int64
	// Workers is handed to every machine's Config, which validates it
	// (it must be ≥ 0); it has no effect on how a machine runs.
	Workers int
	// Deadline is the fault-cell watchdog (0 = chaos.DefaultDeadline).
	Deadline time.Duration
	// Ctx cancels in-flight fault cells (nil = context.Background()); a
	// cancelled cell comes back with ReasonCancelled and is not a result.
	Ctx context.Context
}

func (rc RunConfig) ctx() context.Context {
	if rc.Ctx == nil {
		return context.Background()
	}
	return rc.Ctx
}

// Check decides whether a cell is runnable. It returns "" for runnable
// cells and a Reason* code otherwise; the sweep records the code instead
// of dropping the cell. Anything Check cannot see up front (construction
// errors on exotic parameters) still surfaces as a failed record.
func Check(c Cell, maxCost int64) string {
	if maxCost <= 0 {
		maxCost = DefaultMaxCost
	}
	if c.Exp != "" {
		if core.ExperimentByID(c.Exp) == nil {
			return ReasonUnknownExp
		}
		if c.N < 1 {
			return ReasonInvalidParams
		}
		// Experiments pick their own machine shapes with p ≤ n, so n² is
		// the footprint ceiling proxy.
		if int64(c.N)*int64(c.N) > maxCost {
			return ReasonTooLarge
		}
		return ""
	}
	d := c.withDefaults()
	ms, ok := core.ModelByName(d.Model)
	if !ok {
		return ReasonUnknownModel
	}
	if !backend.Valid(d.Backend) || d.ProcWorkers < 0 {
		return ReasonInvalidParams
	}
	if d.Faults != "" {
		alg, reason := chaosAlgFor(ms, d.Alg)
		if reason != "" {
			return reason
		}
		if !ms.ChaosModel {
			return ReasonInvalidCombo
		}
		if _, err := fault.ParseSpecs(d.Faults); err != nil {
			return ReasonInvalidParams
		}
		if d.N < 1 {
			return ReasonInvalidParams
		}
		// A fault cell runs at its scenario's registry point, so one with
		// a non-default machine axis would record a run it never made.
		def := Cell{N: d.N}.withDefaults()
		if d.P != def.P || d.G != def.G || d.D != def.D || d.L != def.L ||
			d.Alpha != def.Alpha || d.Beta != def.Beta || d.Gamma != def.Gamma || d.Fanin != def.Fanin {
			return ReasonInvalidParams
		}
		pt := chaos.Scenario{Model: d.Model, Alg: alg, N: d.N}.Point().WithDefaults()
		as, _ := core.AlgByName(pt.Alg)
		if int64(d.N)*int64(as.Procs(pt)) > maxCost {
			return ReasonTooLarge
		}
		return ""
	}
	as, ok := core.AlgByName(d.Alg)
	if !ok {
		return ReasonUnknownAlg
	}
	if as.Family != ms.Family {
		return ReasonInvalidCombo
	}
	if d.N < 1 || d.P < 1 || d.G < 1 || d.Fanin < 2 {
		return ReasonInvalidParams
	}
	switch ms.Family {
	case core.FamilyShared:
		if d.D < 1 {
			return ReasonInvalidParams
		}
	case core.FamilyBSP:
		if d.L < 1 {
			return ReasonInvalidParams
		}
	default:
		if d.Alpha < 1 || d.Beta < 1 || d.Gamma < 1 {
			return ReasonInvalidParams
		}
	}
	if int64(d.N)*int64(as.Procs(d.point())) > maxCost {
		return ReasonTooLarge
	}
	return ""
}

// chaosAlgFor maps a cell's algorithm name to the chaos harness's
// algorithm vocabulary (parity, or, lac). Both spellings are accepted:
// the chaos-native names (what `parsim chaos` always took) and registry
// names via their FaultAlg mapping (so "lac-dart" under faults runs the
// chaos lac harness). The second return is the skip reason ("" = ok).
func chaosAlgFor(ms core.ModelSpec, alg string) (string, string) {
	chaosNative := alg == "parity" || alg == "or" || alg == "lac"
	switch {
	case ms.Family == core.FamilyShared && chaosNative:
		return alg, ""
	case ms.Family != core.FamilyShared && (alg == "parity" || alg == "or"):
		return alg, ""
	}
	if as, ok := core.AlgByName(alg); ok {
		if as.Family != ms.Family {
			return "", ReasonInvalidCombo
		}
		if as.FaultAlg == "" {
			return "", ReasonUnsupportedAlg
		}
		return as.FaultAlg, ""
	}
	if chaosNative {
		// "lac" on bsp/gsm: a real chaos algorithm, just not on this family.
		return "", ReasonUnsupportedAlg
	}
	return "", ReasonUnknownAlg
}

// RunCell executes one cell end to end and always returns a record:
// skipped (with reason), ok, diagnosed (fault cells only) or failed.
func RunCell(c Cell, rc RunConfig) Record {
	rec := Record{Key: c.Key(), Cell: c}
	if c.Exp == "" {
		rec.Cell = c.withDefaults()
	}
	if reason := Check(c, rc.MaxCost); reason != "" {
		rec.Status, rec.Reason = StatusSkipped, reason
		return rec
	}
	switch {
	case c.Exp != "":
		runExpCell(&rec, rc)
	case rec.Faults != "":
		runFaultCell(&rec, rc)
	default:
		runMachineCell(&rec, rc)
	}
	return rec
}

// runExpCell measures one (experiment, n) point through the same
// RunPoint path cmd/tables uses, so a sweep's experiment records
// reassemble into the byte-identical golden tables.
func runExpCell(rec *Record, rc RunConfig) {
	row, err := core.Runner{Workers: rc.Workers}.RunPoint(core.ExperimentByID(rec.Exp), rec.N, rec.Seed)
	if err != nil {
		rec.Status, rec.Error = StatusFailed, err.Error()
		return
	}
	rec.Status = StatusOK
	rec.Time = row.Measured
	rec.Bound, rec.Upper, rec.Ratio = row.Bound, row.Upper, row.Ratio
	rec.AllRounds = row.AllRounds
	rec.Verified = true
}

// runFaultCell runs one chaos scenario and grades it against the
// robustness invariant: verified → ok, diagnosable error → diagnosed,
// invariant violation → failed.
func runFaultCell(rec *Record, rc RunConfig) {
	ms, _ := core.ModelByName(rec.Model)
	alg, _ := chaosAlgFor(ms, rec.Alg)
	specs, _ := fault.ParseSpecs(rec.Faults) // Check already validated
	o := chaos.Run(rc.ctx(), chaos.Scenario{
		Model: rec.Model, Alg: alg, N: rec.N, Seed: rec.Seed,
		Specs: specs, Degraded: rec.Degraded,
		Backend: rec.Backend, ProcWorkers: rec.ProcWorkers,
	}, rc.Deadline, rc.Workers)
	if o.Cancelled {
		rec.Status, rec.Reason = StatusSkipped, ReasonCancelled
		return
	}
	if o.Report != nil {
		rec.Injected = o.Report.Injected
		rec.Recovered = o.Report.Recovered
		rec.MaskedProcs = o.Report.MaskedProcs
	}
	switch inv := o.Invariant(); {
	case inv != nil:
		rec.Status, rec.Error = StatusFailed, inv.Error()
	case o.Verified:
		rec.Status, rec.Verified = StatusOK, true
	default:
		rec.Status, rec.Error = StatusDiagnosed, o.Err.Error()
	}
}

// runMachineCell runs one fault-free algorithm cell through
// core.Runner.Execute, constructing (and closing) the cell's
// commit-barrier backend around the run.
func runMachineCell(rec *Record, rc RunConfig) {
	bk, err := backend.New(backend.Config{Name: rec.Cell.Backend, ProcWorkers: rec.ProcWorkers})
	if err != nil {
		rec.Status, rec.Error = StatusFailed, err.Error()
		return
	}
	if bk != nil {
		defer bk.Close()
	}
	out, err := core.Runner{Workers: rc.Workers, Backend: bk}.Execute(rec.Cell.point())
	if err != nil {
		rec.Status, rec.Error = StatusFailed, err.Error()
		return
	}
	rep := out.Report
	rec.Time = float64(rep.TotalTime)
	rec.Phases = rep.NumPhases()
	rec.Work = rep.Work
	rec.AllRounds = rep.AllRounds
	rec.Status, rec.Verified = StatusOK, true
}
