package engine

import (
	"fmt"

	"repro/internal/cost"
)

// This file is the engine half of the deterministic fault-injection and
// recovery subsystem (the other half — seeded fault plans — lives in
// internal/fault, which implements Injector without the engine importing
// it back).
//
// The design rests on two pillars of the existing runtime:
//
//   - Injection points sit at the commit barrier, in the same place the
//     Observer hook sits: the injector is consulted exactly once per
//     phase attempt, after the merge has validated the phase and before
//     anything is charged or applied. The consult order is therefore a
//     pure function of the phase/attempt sequence, and reruns produce
//     byte-identical fault schedules and event streams.
//
//   - Recovery is phase-granular because the models themselves are: the
//     request discipline ("the value returned by a shared-memory read can
//     only be used in a subsequent phase", sends are "based on the
//     component's state at the start of the superstep") makes every phase
//     body a function of start-of-phase state, so rolling shared state
//     back to the last committed phase and re-running the body is
//     semantically a no-op plus the model-time cost of the retry.
//
// A transient fault deliberately fires *after* the commit applies: the
// phase charges, writes/deliveries land, and a deterministically chosen
// cell (or inbox) is corrupted — then the barrier "detects" the fault and
// rolls the machine back to the checkpoint taken at phase start. This
// gives Checkpoint/Rollback real state to restore (memory contents and
// cost counters exactly), which the failure-path tests pin down.

// FaultClass classifies an injected fault's effect on the machine
// lifecycle.
type FaultClass int

const (
	// FaultNone means the attempt proceeds unfaulted.
	FaultNone FaultClass = iota
	// FaultTransient aborts the attempt after commit, rolls the machine
	// back to the last committed phase and schedules a retry under the
	// machine's RetryPolicy.
	FaultTransient
	// FaultCrash fails one processor (BSP: component) permanently. In
	// degraded mode the processor is masked — its body no longer runs and
	// it contributes no requests from the next phase on; otherwise the
	// crash poisons the machine like any permanent fault.
	FaultCrash
	// FaultPermanent poisons the machine with the fault error; no
	// recovery is attempted.
	FaultPermanent
)

// String returns the report name of the class.
func (fc FaultClass) String() string {
	switch fc {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultCrash:
		return "crash"
	case FaultPermanent:
		return "permanent"
	default:
		return fmt.Sprintf("class(%d)", int(fc))
	}
}

// InjectCtx is what the engine tells the injector about the attempt being
// decided. All fields are deterministic functions of the run so far.
type InjectCtx struct {
	// Phase is the zero-based index the phase would commit as.
	Phase int
	// Attempt is the 1-based attempt counter for this phase (> 1 on
	// retries after transient faults).
	Attempt int
	// P is the machine's processor (component) count.
	P int
	// Cells is the current shared-memory size (0 for routing machines).
	Cells int
	// Total is the model time accumulated by committed phases so far.
	Total cost.Time
}

// Verdict is the injector's decision for one phase attempt.
type Verdict struct {
	// Class selects the fault effect; FaultNone commits normally.
	Class FaultClass
	// Err is the diagnosable fault error; required for every class but
	// FaultNone. The engine wraps it with %w, so sentinel errors survive
	// errors.Is/errors.As through the machine's Err.
	Err error
	// Proc is the crashing processor for FaultCrash.
	Proc int
	// Addr is the corruption target of a FaultTransient: the shared-
	// memory cell whose committed value is damaged, or the component
	// whose delivered inbox is damaged. Negative means no corruption.
	Addr int
	// Drop selects the routing corruption flavor: drop the corrupted
	// inbox's first delivery instead of duplicating it.
	Drop bool
	// Violation marks an injected contention-rule violation: shared-
	// memory engines additionally wrap the model's Violation sentinel so
	// the fault is indistinguishable from a real access-rule breach to
	// errors.Is.
	Violation bool
}

// Snapshotter is an optional adapter extension: machines with host-side
// mutable state beyond the engine's shared memory or inboxes (the BSP's
// per-component private memories) implement it on their Model so phase
// checkpoints capture that state too. Snapshot is called by Checkpoint,
// Restore by Rollback; without it a retried phase would re-apply the
// body's private-state mutations on top of the first attempt's.
type Snapshotter interface {
	Snapshot()
	Restore()
}

// Injector decides fault injection for a machine. It is consulted exactly
// once per phase attempt, at the commit barrier — after the merge, before
// the charge. Implementations must be deterministic functions of the
// consult sequence (seeded RNG state included); wall-clock or global-RNG
// decisions would break the byte-identical rerun contract.
type Injector interface {
	Inject(ic InjectCtx) Verdict
}

// RetryPolicy bounds transient-fault recovery. The backoff is charged in
// model time through the machine's own cost formulas — never wall clock:
// each retry inserts a recovery stall phase of BackoffOps·2^(attempt-1)
// local operations, priced by the model's PhaseCost rule (so a BSP stall
// costs at least L, and a GSM stall one big-step).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per phase (first try
	// included); ≤ 0 selects DefaultMaxAttempts. When attempts are
	// exhausted the machine poisons with the last fault error wrapped in
	// a retries-exhausted message.
	MaxAttempts int
	// BackoffOps is the local-op charge of the first recovery stall,
	// doubling per further retry of the same phase; ≤ 0 selects
	// DefaultBackoffOps.
	BackoffOps int64
}

// DefaultMaxAttempts and DefaultBackoffOps are the RetryPolicy zero-value
// defaults.
const (
	DefaultMaxAttempts = 3
	DefaultBackoffOps  = 1
)

func (rp RetryPolicy) attempts() int {
	if rp.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return rp.MaxAttempts
}

func (rp RetryPolicy) backoff() int64 {
	if rp.BackoffOps <= 0 {
		return DefaultBackoffOps
	}
	return rp.BackoffOps
}

// FaultStats is the engine-side accounting of an injected run, reported
// through Machine.FaultStats and folded into fault.Report.
type FaultStats struct {
	// Injected counts verdicts with Class != FaultNone.
	Injected int
	// Transient counts injected transient faults (each triggers one
	// rollback).
	Transient int
	// Recovered counts phases that committed after at least one
	// transient abort.
	Recovered int
	// Retries counts extra phase attempts executed (= recovery stalls
	// charged).
	Retries int
	// MaskedProcs counts processors crashed and masked in degraded mode.
	MaskedProcs int
	// RecoveryCost is the model time charged to recovery stall phases.
	RecoveryCost cost.Time
	// Transport counts backend merge failures recovered through retry
	// (see backend.go); zero on the in-proc path.
	Transport int
}

// InjectFaults attaches a fault injector and recovery policy to the
// machine; call before the first phase. With degraded true, crash faults
// mask the processor (its body stops running and it contributes no
// requests from the next phase on) instead of poisoning the machine —
// degraded-aware runners re-partition work over Survivors.
func (c *Core) InjectFaults(inj Injector, rp RetryPolicy, degraded bool) {
	c.inj = inj
	c.retry = rp
	c.degraded = degraded
	if c.crashed == nil {
		c.crashed = make([]bool, c.params.P)
	}
}

// FaultStats returns the engine-side fault accounting of the run so far.
func (c *Core) FaultStats() FaultStats { return c.fstats }

// Degraded reports whether crash faults mask processors instead of
// poisoning the machine.
func (c *Core) Degraded() bool { return c.degraded }

// CrashedProc reports whether processor i has crashed and been masked.
func (c *Core) CrashedProc(i int) bool {
	return c.crashed != nil && i >= 0 && i < len(c.crashed) && c.crashed[i]
}

// CrashedCount returns the number of masked processors.
func (c *Core) CrashedCount() int { return c.ncrashed }

// Survivors returns the sorted ids of processors that have not crashed.
// Degraded-aware runners re-partition their strided loops over this set
// between phases.
func (c *Core) Survivors() []int {
	out := make([]int, 0, c.params.P-c.ncrashed)
	for i := 0; i < c.params.P; i++ {
		if !c.CrashedProc(i) {
			out = append(out, i)
		}
	}
	return out
}

// consultInjector asks the attached injector for a verdict on the current
// attempt. It runs on the coordinating goroutine at the commit barrier
// and owns all fault bookkeeping: crash masking (degraded) or promotion
// to permanent (strict), stats, and the last-fault error used when
// retries are exhausted.
func (c *Core) consultInjector() Verdict {
	ic := InjectCtx{
		Phase:   c.curPhase,
		Attempt: c.attempt,
		P:       c.params.P,
		Cells:   c.cells,
		Total:   c.report.TotalTime,
	}
	v := c.inj.Inject(ic)
	if v.Class == FaultNone {
		return v
	}
	c.fstats.Injected++
	// Backends with physical failure modes mirror the verdict as a real
	// fault (process kill, frame drop/dup). The model-level bookkeeping
	// is untouched: the verdict, not its physical echo, is the
	// deterministic source of truth.
	if fr, ok := c.backend.(FaultRealizer); ok {
		fr.Realize(ic, v)
	}
	switch v.Class {
	case FaultCrash:
		// In degraded mode the crash phase itself still commits
		// ("crashed at the barrier after its requests merged"); masking
		// starts next phase.
		if !c.degraded {
			v.Class = FaultPermanent
		} else if p := v.Proc; p >= 0 && p < len(c.crashed) && !c.crashed[p] {
			c.crashed[p] = true
			c.ncrashed++
			c.fstats.MaskedProcs++
		}
	case FaultTransient:
		c.fstats.Transient++
		c.lastFault = v.Err
	}
	return v
}

// Saturation bounds of the exponential recovery backoff. The exponent
// cap keeps the shift defined at any attempt count; the ops cap keeps
// one stall's charge — and the sums of many stalls — comfortably inside
// int64 cost arithmetic even when BackoffOps itself is huge. Without the
// ops cap, BackoffOps ≥ 2^31 shifted by the 32-bit exponent cap walked
// straight past the sign bit and charged a negative stall.
const (
	maxRecoveryShift = 32
	maxRecoveryOps   = int64(1) << 40
)

// chargeRecovery charges the model-time backoff stall for a retry of the
// current phase: a visible phase (PhaseStart/PhaseEnd events, a report
// record) of min(BackoffOps·2^(attempt-1), maxRecoveryOps) local
// operations priced by the model's own cost rule — the doubling
// saturates instead of overflowing at high attempt counts. It runs after
// Rollback, so the stall occupies the index of the phase being retried
// minus nothing — the retried attempt follows it.
func (c *Core) chargeRecovery() {
	// maxRecoveryOps is a power of two above 2^maxRecoveryShift, so
	// capping before the shift saturates at exactly maxRecoveryOps.
	shift := min(uint(c.attempt-1), maxRecoveryShift)
	ops := min(c.retry.backoff(), maxRecoveryOps>>shift) << shift
	c.observePhaseStart()
	pc := c.model.PhaseCost(Outcome{MaxOps: ops})
	c.report.Add(pc)
	c.fstats.Retries++
	c.fstats.RecoveryCost += pc.Time
	c.observePhaseEnd(pc)
	// The stall is committed: advance the checkpoint mark past it so a
	// transient fault on the next attempt does not uncharge it. Memory is
	// unchanged since Rollback, so the snapshot itself stays valid.
	c.ckMark = c.report.Mark()
}

// ckCore snapshots the Core side of a checkpoint: the cost aggregates,
// and a Snapshotter model's host-side state.
func (c *Core) ckCore() {
	if s, ok := c.model.(Snapshotter); ok {
		s.Snapshot()
	}
	c.ckMark = c.report.Mark()
	c.ckOk = true
}

// rewindCore restores the Core side of a checkpoint; reports whether a
// checkpoint was set.
func (c *Core) rewindCore() bool {
	if !c.ckOk {
		return false
	}
	c.report.Rewind(c.ckMark)
	if s, ok := c.model.(Snapshotter); ok {
		s.Restore()
	}
	return true
}

// retriesExhausted poisons the machine after MaxAttempts failed attempts
// of one phase, wrapping the last injected fault so its sentinel stays
// visible to errors.Is.
func (c *Core) retriesExhausted() {
	err := c.lastFault
	if err == nil {
		err = fmt.Errorf("engine: unidentified transient fault")
	}
	c.RecordErr(fmt.Errorf("phase %d: transient fault persisted after %d attempts: %w",
		c.curPhase, c.attempt, err))
}
