// Package chaos is the sweep harness of the fault-injection subsystem: it
// runs Section 8 algorithms on the simulated machines under seeded fault
// plans and checks the global robustness invariant — every run either
// completes with a verified-correct answer or returns a diagnosable
// machine error. No panics, no hangs (per-run deadlines), no silently
// wrong output, and identical seeds produce byte-identical fault and
// observer event streams at every Workers setting.
//
// A scenario runs through core.Runner.Execute, the registry path every
// other §8 run takes; the harness adds only the watchdog, panic recovery,
// backend ownership and the invariant.
//
// The harness is deliberately adversarial plumbing, not model code: model
// time still comes exclusively from the cost formulas (the per-run
// deadline is a watchdog against harness hangs, not a cost measurement),
// and all randomness flows through fault.Plan and seeded workload
// generators.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
)

// DefaultDeadline is the per-run watchdog used when a Scenario run is
// given no explicit deadline.
const DefaultDeadline = 30 * time.Second

// Scenario is one chaos run: an algorithm on a machine model under a
// seeded fault plan. The seed drives both the workload and the plan, so a
// Scenario is a complete, replayable description of the run.
type Scenario struct {
	// Model selects the machine constructor: qsm, sqsm, crqw, bsp or gsm.
	Model string
	// Alg selects the algorithm: parity, or, lac (shared-memory models);
	// parity, or (bsp and gsm).
	Alg string
	// N is the input size.
	N int
	// Seed drives the workload generator and the fault plan.
	Seed int64
	// Specs is the declarative fault mix.
	Specs []fault.Spec
	// Degraded enables crash masking with survivor re-partitioning; only
	// the shared-memory models have degraded runners, so it is ignored
	// (strict mode) for bsp and gsm.
	Degraded bool
	// Backend selects the commit-barrier backend ("", "inproc" = the
	// built-in merge; "proc" = worker subprocesses). On proc, injected
	// crash and message-channel verdicts additionally echo as real
	// process kills and frame drops/dups.
	Backend string
	// ProcWorkers is the proc backend's worker-process count (default 1).
	ProcWorkers int
}

// Name renders a stable scenario identifier for subtests and logs.
func (s Scenario) Name() string {
	parts := make([]string, len(s.Specs))
	for i, sp := range s.Specs {
		parts[i] = sp.String()
	}
	mode := "strict"
	if s.Degraded {
		mode = "degraded"
	}
	name := fmt.Sprintf("%s/%s/n%d/seed%d/%s/%s",
		s.Model, s.Alg, s.N, s.Seed, strings.Join(parts, "+"), mode)
	if s.Backend != "" && s.Backend != "inproc" {
		name += fmt.Sprintf("/%s%d", s.Backend, s.procWorkers())
	}
	return name
}

func (s Scenario) procWorkers() int {
	if s.ProcWorkers <= 0 {
		return 1
	}
	return s.ProcWorkers
}

// Outcome is the result of one chaos run, judged against the robustness
// invariant: exactly one of Verified / diagnosable Err must hold, and
// Panicked, TimedOut and Wrong must all be clear.
type Outcome struct {
	// Scenario echoes the run description.
	Scenario Scenario
	// Verified is true when the run completed and the answer matched the
	// host-side oracle.
	Verified bool
	// Err is the machine/runner error of an unfinished run (nil iff the
	// run completed).
	Err error
	// Wrong is true when the run completed but the answer failed the
	// oracle — the silent-corruption case the invariant forbids.
	Wrong bool
	// Panicked carries the recovered panic value, if any.
	Panicked string
	// TimedOut is true when the run overran its deadline.
	TimedOut bool
	// Cancelled is true when the run was cut short by context
	// cancellation (SIGINT); a cancelled run is not an invariant
	// violation.
	Cancelled bool
	// FaultLines is the plan's deterministic injection log.
	FaultLines []string
	// Events is the engine observer event log of the run, recorded as
	// structured events; nil if machine construction failed or the run
	// timed out or was cancelled. Its text is rendered only by Stream.
	Events *engine.EventLog
	// Report is the assembled fault report (nil if machine construction
	// failed).
	Report *fault.Report
}

// Stream renders the observer event stream on demand ("" when no event
// log was recorded). Sweeps never call it; it serves `parsim chaos -v`
// and the identical-seed ⇒ identical-stream checks.
func (o *Outcome) Stream() string {
	if o.Events == nil {
		return ""
	}
	return o.Events.String()
}

// Invariant returns nil when the outcome satisfies the robustness
// invariant and a descriptive error otherwise.
func (o *Outcome) Invariant() error {
	switch {
	case o.Cancelled:
		return nil
	case o.Panicked != "":
		return fmt.Errorf("%s: panicked: %s", o.Scenario.Name(), o.Panicked)
	case o.TimedOut:
		return fmt.Errorf("%s: deadline overrun", o.Scenario.Name())
	case o.Wrong:
		return fmt.Errorf("%s: silently wrong output: %w", o.Scenario.Name(), o.Err)
	case o.Verified && o.Err != nil:
		return fmt.Errorf("%s: verified yet errored: %w", o.Scenario.Name(), o.Err)
	case !o.Verified && o.Err == nil:
		return fmt.Errorf("%s: no answer and no error", o.Scenario.Name())
	case o.Err != nil && strings.TrimSpace(o.Err.Error()) == "":
		return fmt.Errorf("%s: undiagnosable empty error", o.Scenario.Name())
	}
	return nil
}

// Proc-backend chaos runs use a tighter liveness protocol than the
// production defaults, so a realized frame drop costs one short response
// deadline instead of seconds of sweep wall time.
const (
	chaosHeartbeatInterval = 10 * time.Millisecond
	chaosHeartbeatTimeout  = 500 * time.Millisecond
)

// newBackend constructs the scenario's commit-barrier backend (nil for
// inproc). PARSIM_PROC_LOGDIR, when set, receives the per-rank worker
// logs — the CI failure-artifact hook; it never influences results.
func newBackend(sc Scenario) (engine.Backend, error) {
	return backend.New(backend.Config{
		Name:              sc.Backend,
		ProcWorkers:       sc.procWorkers(),
		HeartbeatInterval: chaosHeartbeatInterval,
		HeartbeatTimeout:  chaosHeartbeatTimeout,
		LogDir:            os.Getenv("PARSIM_PROC_LOGDIR"),
	})
}

// Run executes one scenario under a watchdog deadline, recovering panics
// into the outcome. workers caps simulation parallelism (0 = GOMAXPROCS);
// ctx cancellation (nil = Background) cuts the run short with a Cancelled
// outcome. Run owns the scenario's backend: it is created before the
// runner starts and closed on every exit path, so worker subprocesses die
// promptly on deadline overrun or SIGINT — closing the backend also fails
// any in-flight merge permanently, unblocking a proc runner goroutine.
// In-proc runners have no cancellation and are abandoned on overrun; the
// overrun itself fails the sweep, so leaked goroutines only ever exist on
// a run that is already a reported bug.
func Run(ctx context.Context, sc Scenario, deadline time.Duration, workers int) *Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	if deadline <= 0 {
		deadline = DefaultDeadline
	}
	out := &Outcome{Scenario: sc}
	bk, err := newBackend(sc)
	if err != nil {
		out.Err = err
		return out
	}
	closeBackend := func() {
		if bk != nil {
			bk.Close()
		}
	}
	done := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out.Panicked = fmt.Sprint(r)
			}
			close(done)
		}()
		execute(sc, workers, bk, out)
	}()
	watchdog := time.NewTimer(deadline)
	defer watchdog.Stop()
	select {
	case <-done:
		// execute's writes to out, Events included, happen before
		// close(done), so reading them here is race-free.
		closeBackend()
		return out
	case <-ctx.Done():
		closeBackend()
		return &Outcome{Scenario: sc, Cancelled: true}
	case <-watchdog.C:
		closeBackend()
		return &Outcome{Scenario: sc, TimedOut: true}
	}
}

// Point is the registry point a scenario runs, and the only statement of
// the chaos machine shape. The shared-memory models run p = n at g = 2
// (the dart LAC needs one processor per cell, and the trees share its
// machine), the parity tree at fan-in 2 and the OR contention tree at
// fan-in 4; BSP runs 8 components at g = 2, L = 8; GSM runs
// α = β = γ = 2. The BSP and GSM trees run at fan-in 4.
func (s Scenario) Point() core.Point {
	pt := core.Point{Model: s.Model, Alg: s.Alg, N: s.N, G: 2, Fanin: 4, Seed: s.Seed}
	switch s.Model {
	case "bsp":
		pt.Alg, pt.P, pt.L = "bsp-"+s.Alg, 8, 8
	case "gsm":
		pt.Alg, pt.Alpha, pt.Beta, pt.Gamma = "gsm-"+s.Alg, 2, 2, 2
	default:
		pt.P = s.N
		switch s.Alg {
		case "parity":
			pt.Fanin = 2
		case "or":
			pt.Alg = "or-contention"
		case "lac":
			pt.Alg = "lac-dart"
		}
	}
	return pt
}

// execute runs the scenario's point under its fault plan through
// core.Runner.Execute and grades the result: a completed run is verified
// or silently wrong (core.ErrUnverified), an unfinished one carries its
// diagnosable error. The fault log and the unrendered event log are kept
// either way.
func execute(sc Scenario, workers int, bk engine.Backend, out *Outcome) {
	plan := fault.NewPlan(sc.Seed, sc.Specs...)
	rn := core.Runner{Workers: workers, Backend: bk, Faults: &core.Faults{Plan: plan, Degraded: sc.Degraded}, Events: true}
	o, err := rn.Execute(sc.Point())
	out.FaultLines = plan.EventLines()
	if o != nil {
		out.Events, out.Report = o.Events, o.Faults
	}
	out.Err, out.Verified, out.Wrong = err, err == nil, errors.Is(err, core.ErrUnverified)
}
