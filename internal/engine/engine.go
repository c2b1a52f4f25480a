// Package engine is the model-generic machine runtime shared by the QSM,
// BSP and GSM simulators. The paper's models all instantiate one skeleton
// — synchronized phases in which every processor records requests against
// shared state, a barrier at which the requests are merged and charged,
// and a per-phase cost rule (Section 2) — and this package owns that
// skeleton exactly once:
//
//   - Core carries the lifecycle state every machine shares:
//     machine-error poisoning, the accumulated cost.Report, the Observer
//     hook, and the barrier tail every phase commits through
//     (Core.commit).
//   - shared is the one shared-memory phase engine (QSM family and GSM):
//     the machine's request lane (lane.go), Phase/ForAll, Grow,
//     Checkpoint/Rollback and the barrier's merge. It comes with two cell
//     stores, which differ only in storage and codec: Mem[V] keeps one V
//     per cell and commits through the model's Apply; BitMem packs 64
//     Boolean cells into a word and records writes as PackWrite entries.
//   - Route[M] is the message-routing superstep engine (BSP, generic
//     over the message type): the same request lane, with a send
//     recorded as a write of the message to its destination, h-relation
//     measurement and deterministic inbox delivery with ping-ponged
//     buffers.
//
// A phase runs on the calling goroutine and costs O(processors
// dispatched) plus O(requests) host work: the machine's one lane has a
// cursor context that serves the processors in ascending order and
// columns they append to, and ForAll dispatches only its active prefix.
// A processor that records nothing leaves nothing behind. The MemCtx,
// BitCtx or Sends a body receives is that cursor, valid only during the
// body call.
//
// Every phase commits through one barrier: the engine's column source
// gathers m_op and m_rw from the lane's maxima and counts contention
// with MemMerger or RouteMerger straight off the active processors' own
// request columns; the tail then checks the access rule, consults the
// fault injector, charges the phase, emits its events and applies or
// delivers over those processors in ascending order. An attached Backend
// replaces only the contention count.
//
// A simulator package is a thin adapter: it supplies a Model (naming,
// cost rule, round classification, commit semantics — last-writer-wins,
// info-merge or message delivery) and re-exposes the engine's lifecycle
// under its model-specific API. New model variants (QSM(g,d) tweaks, CRQW
// relatives, future backends) are adapters too, not forks of the runtime.
//
// Determinism contract: every result observable through a machine —
// memory contents, cost reports, traces, and the Observer event stream —
// is a function of the program and its inputs alone. A phase's result is
// set by the §2 merge of every processor's requests at the barrier, so
// running the bodies one after another changes nothing a machine
// reports. The adapters' Workers setting is validated (ValidateConfig)
// and has no effect on how a machine runs.
package engine

import (
	"fmt"

	"repro/internal/cost"
)

// Model is what a machine adapter supplies to the engine: naming for
// reports and failure messages, and the model's cost rule applied to one
// phase's raw accounting (including round classification).
type Model interface {
	// Name is the cost report's model name ("QSM", "s-QSM", "BSP", "GSM", …).
	Name() string
	// Entity names the per-processor unit in failure messages
	// ("processor" for the shared-memory models, "component" for BSP).
	Entity() string
	// PhaseCost charges one phase: it maps the raw accounting of the
	// barrier merge to the model's cost record, applying the phase-time
	// formula and the Section 2.3 round classification.
	PhaseCost(o Outcome) cost.PhaseCost
}

// Outcome is the raw accounting of one phase's barrier merge, before the
// model's cost rule is applied.
type Outcome struct {
	// MaxOps is the maximum local work by any processor (BSP: w).
	MaxOps int64
	// MaxRW is the maximum requests by any processor (BSP: the
	// h-relation h).
	MaxRW int64
	// KRead and KWrite are the maximum per-cell read and write
	// contention (zero for message-routing models).
	KRead, KWrite int64
}

// Machine is the model-generic read side every simulator satisfies: the
// experiment engine, the facade and the cmds operate against it instead
// of the concrete machine types.
type Machine interface {
	// P returns the number of processors (BSP: components).
	P() int
	// N returns the declared input size.
	N() int
	// Err returns the first model violation or runtime error, if any.
	Err() error
	// Report returns the accumulated cost report.
	Report() *cost.Report
	// AddObserver attaches a structured event observer.
	AddObserver(Observer)
	// InjectFaults attaches a fault injector and recovery policy (see
	// fault.go); call before the first phase.
	InjectFaults(inj Injector, rp RetryPolicy, degraded bool)
	// FaultStats returns the engine-side fault accounting of the run.
	FaultStats() FaultStats
	// SetBackend attaches a commit-barrier backend (see backend.go); call
	// before the first phase. nil selects the built-in in-proc merge.
	SetBackend(Backend)
}

// Core is the lifecycle state shared by every simulated machine. Machine
// adapters embed it (directly or through Mem/Route) and gain the
// model-generic API: P, N, Err, Report, RecordErr, AddObserver.
type Core struct {
	model  Model
	params cost.Params
	n      int
	report cost.Report
	err    error

	obs      []Observer
	curPhase int
	// relay records a phase for the observers that are not EventLogs.
	relay EventLog
	// cells is the shared-memory size in cells, the range memory fault
	// verdicts target; a routing machine leaves it zero.
	cells int

	// Fault-injection and recovery state (see fault.go). inj, retry and
	// degraded are set once by InjectFaults; crashed/ncrashed track
	// degraded-mode masking (written only at the commit barrier, read by
	// the next phase's dispatch);
	// attempt is the 1-based per-phase attempt counter; lastFault is the
	// most recent transient fault error, kept for the retries-exhausted
	// message; ckMark/ckOk are the Core half of the phase checkpoint.
	inj       Injector
	retry     RetryPolicy
	degraded  bool
	crashed   []bool
	ncrashed  int
	fstats    FaultStats
	attempt   int
	lastFault error
	ckMark    cost.Mark
	ckOk      bool

	// backend, when non-nil, replaces the contention count of the commit
	// barrier with an external merge service (see backend.go). nil is the
	// default in-proc path: the barrier counts with MemMerger/RouteMerger.
	backend Backend
}

// Init prepares the core for a machine with the given model, parameters
// and input size.
func (c *Core) Init(model Model, params cost.Params, n int) {
	c.model = model
	c.params = params
	c.n = n
	c.report = cost.Report{Model: model.Name(), N: n, Params: params}
}

// P returns the number of processors (BSP: components).
func (c *Core) P() int { return c.params.P }

// N returns the declared input size.
func (c *Core) N() int { return c.n }

// Params returns the machine parameters.
func (c *Core) Params() cost.Params { return c.params }

// Err returns the first model violation or runtime error, if any.
func (c *Core) Err() error { return c.err }

// RecordErr poisons the machine with the first error observed; later
// phases become no-ops. It is how adapters report host-side misuse
// (out-of-range Peek and friends).
func (c *Core) RecordErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Report returns the accumulated cost report.
func (c *Core) Report() *cost.Report { return &c.report }

// PhaseStatus is what the barrier tells runPhase about a phase's
// outcome.
type PhaseStatus int

const (
	// PhaseCommitted means the phase charged and its writes/deliveries
	// applied.
	PhaseCommitted PhaseStatus = iota
	// PhaseAborted means the phase detected a model violation or a
	// permanent fault and poisoned the machine; nothing committed.
	PhaseAborted
	// PhaseRetry means an injected transient fault was detected after
	// commit and the machine rolled back to the last committed phase; the
	// phase should be re-executed under the RetryPolicy.
	PhaseRetry
)

// runPhase executes the model-generic phase lifecycle: the phase-start
// observer event, the dispatch of the per-processor bodies, failure
// poisoning, and — only if every body succeeded — the barrier over src's
// columns (see commit). run runs the bodies of the phase's processors in
// ascending order on the calling goroutine and reports its failure
// tally: how many bodies failed and the first failure in processor
// order. An erred machine skips the phase entirely; with an injector
// attached, the phase starts from a checkpoint.
//
// A barrier that returns PhaseRetry (transient fault, already rolled
// back) charges a model-time recovery stall and re-dispatches the same
// bodies, up to RetryPolicy.MaxAttempts; model discipline (requests are
// a function of start-of-phase state) makes the re-execution idempotent.
// Poisoning always routes through RecordErr, so the first recorded error
// is stable: repeated Err() calls and post-failure phase attempts
// observe the same wrapped chain.
func (c *Core) runPhase(run func() (int32, error), src columnSource) {
	if c.err != nil {
		return
	}
	if c.inj != nil {
		src.Checkpoint()
	}
	c.attempt = 1
	for {
		c.observePhaseStart()
		// Failed processors short-circuit the commit: nothing is counted
		// and nothing commits. The first error in processor order wins;
		// the number of other failing processors is preserved in the
		// message.
		if nfail, first := run(); nfail > 0 {
			if nfail > 1 {
				c.RecordErr(fmt.Errorf("%w (and %d other %ss failed)",
					first, nfail-1, c.model.Entity()))
			} else {
				c.RecordErr(first)
			}
			return
		}
		switch c.commit(src) {
		case PhaseRetry:
			if c.attempt >= c.retry.attempts() {
				c.retriesExhausted()
				return
			}
			c.chargeRecovery()
			c.attempt++
		case PhaseCommitted:
			if c.attempt > 1 {
				c.fstats.Recovered++ // a commit after a retry is a recovery
			}
			return
		default:
			return
		}
	}
}

// columnSource is one engine's view of a phase's request columns, the
// part of the barrier that differs between engines. The barrier calls
// each method at most once per phase attempt; each walks the phase's
// lane itself, so nothing is dispatched per request.
type columnSource interface {
	// gather returns the phase's raw accounting: the m_op and m_rw
	// maxima, plus the contention counted in process or by the attached
	// backend. viol is the smallest cell both read and written (−1 for
	// none); err is the backend's failed merge.
	gather() (o Outcome, viol int32, err error)
	// poison records why the phase aborts, in the engine's wording: the
	// read+write clash at cell, or with cell < 0 the permanent fault v.
	poison(cell int32, v Verdict)
	// record appends the phase to l as one record (see EventLog), before
	// anything applies.
	record(l *EventLog)
	// apply commits the writes or delivers the messages.
	apply()
	// corrupt damages the applied phase as the transient fault v says.
	corrupt(v Verdict)
	// Checkpoint and Rollback save and restore the phase-start state.
	Checkpoint()
	Rollback() bool
}

// commit is the barrier every engine's phase ends in: merge (src.gather,
// in process or through the backend), the access-rule check, the
// injector consult, the charge, the observer record, the apply, and
// PhaseEnd. A failed backend merge schedules a retry or poisons the
// machine per transportStatus; nothing was charged or applied, so state
// is already consistent.
//
// A transient fault fires after the apply: the barrier charges, lets the
// writes land or the messages deliver, damages the target, then
// "detects" it and rolls back to the phase-start checkpoint. The aborted
// attempt emits no Request and no PhaseEnd events, per the Observer
// contract.
func (c *Core) commit(src columnSource) PhaseStatus {
	o, viol, err := src.gather()
	if err != nil {
		return c.transportStatus(err)
	}
	if viol >= 0 {
		src.poison(viol, Verdict{})
		return PhaseAborted
	}
	if c.inj != nil {
		switch v := c.consultInjector(); v.Class {
		case FaultPermanent:
			src.poison(-1, v)
			return PhaseAborted
		case FaultTransient:
			c.chargePhase(o)
			src.apply()
			src.corrupt(v)
			src.Rollback()
			return PhaseRetry
		}
	}
	pc := c.chargePhase(o)
	if len(c.obs) > 0 { // unobserved runs record nothing
		c.observeRecord(src)
	}
	src.apply()
	c.observePhaseEnd(pc)
	return PhaseCommitted
}

// chargePhase applies the model's cost rule to the merge outcome and
// appends the record to the report.
func (c *Core) chargePhase(o Outcome) cost.PhaseCost {
	pc := c.model.PhaseCost(o)
	c.report.Add(pc)
	return pc
}
