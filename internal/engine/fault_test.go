package engine_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cost"
	"repro/internal/engine"
)

// consult names one injector consult: a phase index and its attempt.
type consult struct{ phase, attempt int }

// consultInjector fires its verdict at each listed consult — the minimal
// deterministic Injector, so these tests exercise the engine's recovery
// machinery without the fault-plan layer.
type consultInjector map[consult]engine.Verdict

func (ci consultInjector) Inject(ic engine.InjectCtx) engine.Verdict {
	return ci[consult{ic.Phase, ic.Attempt}]
}

// scripted fires each verdict at the first attempt of its phase.
func scripted(verdicts map[int]engine.Verdict) consultInjector {
	ci := make(consultInjector, len(verdicts))
	for phase, v := range verdicts {
		ci[consult{phase, 1}] = v
	}
	return ci
}

var errScripted = errors.New("scripted fault")

// An injected permanent abort emits PhaseStart but neither Request nor
// PhaseEnd — the observer contract for aborted phases — and later phase
// attempts add nothing to the stream.
func TestInjectedAbortEmitsNoPhaseEnd(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newMemMachine(t, 2, 4, workers)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		m.InjectFaults(scripted(map[int]engine.Verdict{
			1: {Class: engine.FaultPermanent, Err: errScripted, Proc: -1, Addr: -1},
		}), engine.RetryPolicy{}, false)

		body := func(c *engine.MemCtx[int64]) { c.Write(c.Proc(), 1) }
		m.Phase(body) // phase 0 commits
		m.Phase(body) // phase 1 aborts at the barrier
		m.Phase(body) // poisoned: no body, no events

		if !errors.Is(m.Err(), errScripted) {
			t.Fatalf("Err = %v, want the scripted fault", m.Err())
		}
		stream := ev.String()
		if !strings.Contains(stream, "phase 1 start") {
			t.Fatalf("aborted phase missing its start event:\n%s", stream)
		}
		for _, banned := range []string{"phase 1 end", "phase 1: proc", "phase 2"} {
			if strings.Contains(stream, banned) {
				t.Errorf("aborted/poisoned stream contains %q:\n%s", banned, stream)
			}
		}
		if m.Report().NumPhases() != 1 {
			t.Errorf("NumPhases = %d, want only the committed phase", m.Report().NumPhases())
		}
	})
}

// faultRun is what a run of a rollback program leaves behind.
type faultRun struct {
	state  any // memory, or private memories and inboxes
	report cost.Report
	stats  engine.FaultStats
}

// rollbackProgram is a short program of rollbackPhases phases whose
// later phases read what earlier ones wrote, run on one engine. run runs
// it under inj (nil: clean) with the retry policy rollbackPolicy;
// targets are the transient faults to try, one per cell or component
// (and corruption flavor).
type rollbackProgram struct {
	name    string
	targets []engine.Verdict
	run     func(t *testing.T, workers int, inj engine.Injector) faultRun
}

const rollbackPhases = 4

var rollbackPolicy = engine.RetryPolicy{MaxAttempts: 3, BackoffOps: 2}

// transientAt returns a transient fault at cell or component addr.
func transientAt(addr int, drop bool) engine.Verdict {
	return engine.Verdict{Class: engine.FaultTransient, Err: errScripted, Proc: -1, Addr: addr, Drop: drop}
}

// rollbackPrograms run on Mem, BitMem and a bsp.Machine with private
// memory. On the shared-memory engines, 4 processors alternate between
// reading one half of 8 cells and writing the other, so a corrupted cell
// of the read half feeds the retried attempt. On the BSP, every
// superstep adds the component's inbox into its private memory and sends
// a varying number of messages from it, so a retry that re-applies a
// private mutation or reads a damaged inbox shows.
var rollbackPrograms = []rollbackProgram{
	{"mem", cellFaults(8), func(t *testing.T, workers int, inj engine.Injector) faultRun {
		m := newMemMachine(t, 4, 8, workers)
		m.InjectFaults(inj, rollbackPolicy, false)
		for i := range m.Data() {
			m.Data()[i] = int64(10 + i)
		}
		for j := range rollbackPhases {
			from, to := 4*(j%2), 4-4*(j%2)
			m.Phase(func(c *engine.MemCtx[int64]) {
				i := c.Proc()
				c.Op(1)
				c.Write(to+i, c.Read(from+i)+c.Read(from+(i+1)%4)+int64(j))
			})
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return faultRun{slices.Clone(m.Data()), *m.Report(), m.FaultStats()}
	}},
	{"bit", cellFaults(8), func(t *testing.T, workers int, inj engine.Injector) faultRun {
		m := newBitMachine(t, 4, 8, workers)
		m.InjectFaults(inj, rollbackPolicy, false)
		for i, b := range []bool{true, false, true, true} {
			m.SetBit(i, b)
		}
		for j := range rollbackPhases {
			from, to := 4*(j%2), 4-4*(j%2)
			m.Phase(func(c *engine.BitCtx) {
				i := c.Proc()
				c.Op(1)
				c.Write(to+i, c.Read(from+i) != c.Read(from+(i+1)%4) != (i != j))
			})
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return faultRun{slices.Clone(m.Words()), *m.Report(), m.FaultStats()}
	}},
	{"bsp", inboxFaults(4), func(t *testing.T, workers int, inj engine.Injector) faultRun {
		const p = 4
		m := bsp.MustNew(bsp.Config{P: p, G: 1, L: 1, N: p, PrivCells: 2, Workers: workers})
		m.InjectFaults(inj, rollbackPolicy, false)
		if err := m.Scatter([]int64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		for j := range rollbackPhases {
			m.Superstep(func(c *bsp.Ctx) {
				priv := c.Priv()
				for _, msg := range c.Incoming() {
					priv[0] += msg.Val
				}
				priv[0]++
				priv[1] = int64(j)
				for k := 0; k <= (c.Comp()+j)%3; k++ {
					c.Send((c.Comp()+k+1)%p, int64(j), priv[0]+int64(k))
				}
			})
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		var state [][]int64
		for i := 0; i < p; i++ {
			row := []int64{m.Peek(i, 0), m.Peek(i, 1)}
			for _, msg := range m.Incoming(i) {
				row = append(row, int64(msg.From), msg.Tag, msg.Val)
			}
			state = append(state, row)
		}
		return faultRun{state, *m.Report(), m.FaultStats()}
	}},
}

// cellFaults corrupts each of n cells in turn.
func cellFaults(n int) []engine.Verdict {
	var out []engine.Verdict
	for a := range n {
		out = append(out, transientAt(a, false))
	}
	return out
}

// inboxFaults damages each of p inboxes in turn, duplicating a delivery
// and then dropping one.
func inboxFaults(p int) []engine.Verdict {
	var out []engine.Verdict
	for a := range p {
		out = append(out, transientAt(a, false), transientAt(a, true))
	}
	return out
}

// TestRollbackRestoresCostExactly is the engine-level fault differential:
// a rolled-back phase leaves exactly the state it started from. Each
// program runs clean, then once per phase k and fault target with one
// transient fault at phase k, and once with two in a row (the retry is
// consulted as phase k+1, attempt 2, because the stall commits first).
// Every faulted run must end with the clean run's memory, private
// memories and inboxes, and with exactly the clean report plus its
// charged stalls. A shallow checkpoint of any part of that state fails
// it: the single transients catch shared memory and private memory, and
// only the double ones catch an inbox checkpoint that aliases the live
// inboxes, since those ping-pong between two buffers.
func TestRollbackRestoresCostExactly(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		for _, prog := range rollbackPrograms {
			t.Run(prog.name, func(t *testing.T) {
				clean := prog.run(t, workers, nil)
				for k := range rollbackPhases {
					for _, v := range prog.targets {
						for n := 1; n <= 2; n++ {
							inj := consultInjector{{k, 1}: v}
							if n == 2 {
								inj[consult{k + 1, 2}] = v
							}
							got := prog.run(t, workers, inj)
							where := fmt.Sprintf("%d transient(s) at phase %d, target %d drop=%v", n, k, v.Addr, v.Drop)
							checkRolledBack(t, where, clean, got, k, n)
						}
					}
				}
			})
		}
	})
}

// checkRolledBack checks that run got, which met n transient faults in a
// row at phase k, ended exactly as the clean run did plus n recovery
// stalls at indexes k, …, k+n−1.
func checkRolledBack(t *testing.T, where string, clean, got faultRun, k, n int) {
	t.Helper()
	if !reflect.DeepEqual(got.state, clean.state) {
		t.Fatalf("%s: state %v, want the clean run's %v — rollback left residue", where, got.state, clean.state)
	}
	if len(got.report.Phases) != len(clean.report.Phases)+n {
		t.Fatalf("%s: %d phases, want the clean run's %d plus %d stalls", where, len(got.report.Phases), len(clean.report.Phases), n)
	}
	want := cost.Report{Model: clean.report.Model, N: clean.report.N, Params: clean.report.Params}
	var stallTime cost.Time
	for i, pc := range clean.report.Phases {
		if i == k {
			for j, st := range got.report.Phases[k : k+n] {
				// Every program's model charges a stall of ops local
				// operations exactly ops time units at these parameters.
				if ops := rollbackPolicy.BackoffOps << j; st.MaxOps != ops || st.MaxRW != 0 || st.Time != cost.Time(ops) {
					t.Fatalf("%s: phase %d is %+v, want a recovery stall of %d local ops costing %d", where, k+j, st, ops, ops)
				}
				want.Add(st)
				stallTime += st.Time
			}
		}
		want.Add(pc)
	}
	if !reflect.DeepEqual(got.report, want) {
		t.Fatalf("%s: report\n%+v\nwant the clean report plus the stalls\n%+v", where, got.report, want)
	}
	want1 := engine.FaultStats{Injected: n, Transient: n, Recovered: 1, Retries: n, RecoveryCost: stallTime}
	if got.stats != want1 {
		t.Fatalf("%s: fault stats %+v, want %+v", where, got.stats, want1)
	}
}

// noFault is an attached injector that never faults.
type noFault struct{}

func (noFault) Inject(engine.InjectCtx) engine.Verdict { return engine.Verdict{} }

// firstAttemptTransient fails the first attempt of every phase with a
// transient fault at cell or component 0, so every phase commits on its
// second attempt.
type firstAttemptTransient struct{}

func (firstAttemptTransient) Inject(ic engine.InjectCtx) engine.Verdict {
	if ic.Attempt > 1 {
		return engine.Verdict{}
	}
	return engine.Verdict{Class: engine.FaultTransient, Err: errScripted, Proc: -1, Addr: 0}
}

// TestInjectedSteadyStateAllocs pins the fault path's allocations: with
// an injector attached, a warm phase also checkpoints and consults it,
// and allocates exactly what an uninjected one does; so does a phase
// retried after a transient fault (apply, corrupt, rollback, stall,
// second attempt).
func TestInjectedSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		inj  engine.Injector
	}{
		{"none", noFault{}},
		{"transient", firstAttemptTransient{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachBarrier(t, func(t *testing.T, workers int) {
				const p = 64
				m := newMemMachine(t, p, 2*p, workers)
				m.InjectFaults(tc.inj, engine.RetryPolicy{}, false)
				mb := func(c *engine.MemCtx[int64]) { c.Write(p+c.Proc(), c.Read(c.Proc())+1) }
				r := newRouteMachine(t, p, workers)
				r.InjectFaults(tc.inj, engine.RetryPolicy{}, false)
				rb := func(i int, s *engine.Sends[int64]) { s.Stage(int32((i+1)%p), int64(i)) }
				for range 2 {
					m.Phase(mb)
					r.Superstep(rb)
				}
				if err := errors.Join(m.Err(), r.Err()); err != nil {
					t.Fatal(err)
				}
				checkWarmAllocs(t, warmPhaseAllocs, func() { m.Phase(mb) })
				checkWarmAllocs(t, warmPhaseAllocs, func() { r.Superstep(rb) })
			})
		})
	}
}

// Exhausted retries poison with a stable first-error-wins chain that
// repeated Err calls and further phase attempts do not change.
func TestRetryExhaustionStableError(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newMemMachine(t, 2, 4, workers)
		m.InjectFaults(persistentTransient{}, engine.RetryPolicy{MaxAttempts: 2}, false)
		m.Phase(func(c *engine.MemCtx[int64]) { c.Write(c.Proc(), 1) })
		first := m.Err()
		if !errors.Is(first, errScripted) {
			t.Fatalf("Err = %v, want the transient cause in the chain", first)
		}
		if !strings.Contains(first.Error(), "after 2 attempts") {
			t.Fatalf("Err = %v, want attempt accounting in the message", first)
		}
		m.Phase(func(c *engine.MemCtx[int64]) { c.Write(c.Proc(), 2) })
		if again := m.Err(); !errors.Is(first, errScripted) || again.Error() != first.Error() {
			t.Fatalf("poisoned error drifted: %q then %q", first, again)
		}
	})
}

// persistentTransient fails every attempt of every phase.
type persistentTransient struct{}

func (persistentTransient) Inject(ic engine.InjectCtx) engine.Verdict {
	return engine.Verdict{Class: engine.FaultTransient, Err: errScripted, Proc: -1, Addr: 0}
}

// The full observer stream under an active injector is byte-identical at
// Workers=1 and Workers=8 (run with -race in CI: the recovery path must
// also be race-clean).
func TestWorkersDeterminismUnderInjection(t *testing.T) {
	stream := func(workers int) string {
		m := newMemMachine(t, 8, 16, workers)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		m.InjectFaults(scripted(map[int]engine.Verdict{
			1: {Class: engine.FaultTransient, Err: errScripted, Proc: -1, Addr: 3},
			3: {Class: engine.FaultCrash, Err: errScripted, Proc: 5, Addr: -1},
		}), engine.RetryPolicy{}, true)
		for phase := 0; phase < 5; phase++ {
			m.Phase(func(c *engine.MemCtx[int64]) {
				c.Op(1)
				c.Write((c.Proc()+phase)%16, int64(c.Proc()))
			})
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return ev.String()
	}
	w1, w8 := stream(1), stream(8)
	if w1 != w8 {
		t.Fatalf("streams diverge:\nW1:\n%s\nW8:\n%s", w1, w8)
	}
	if !strings.Contains(w1, "start") {
		t.Fatal("empty stream")
	}
}

// Crash masking in degraded mode: the crash phase itself still commits,
// and from the next phase on the crashed processor's body is skipped.
func TestDegradedCrashMasksFromNextPhase(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newMemMachine(t, 4, 8, workers)
		m.InjectFaults(scripted(map[int]engine.Verdict{
			0: {Class: engine.FaultCrash, Err: errScripted, Proc: 2, Addr: -1},
		}), engine.RetryPolicy{}, true)
		m.Phase(func(c *engine.MemCtx[int64]) { c.Write(c.Proc(), 1) })
		m.Phase(func(c *engine.MemCtx[int64]) { c.Write(4+c.Proc(), 1) })
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if m.Data()[2] != 1 {
			t.Error("crash phase did not commit the crashed processor's write")
		}
		if m.Data()[4+2] != 0 {
			t.Error("masked processor still ran after its crash phase")
		}
		if !m.CrashedProc(2) || m.CrashedCount() != 1 {
			t.Errorf("crash bookkeeping: crashed(2)=%v count=%d", m.CrashedProc(2), m.CrashedCount())
		}
		if got := m.Survivors(); len(got) != 3 {
			t.Errorf("Survivors = %v, want 3 processors", got)
		}
	})
}

// Exponential recovery backoff must saturate, not overflow: the naive
// BackoffOps·2^(attempt-1) charge walks past the int64 sign bit once the
// shift reaches 63 (sooner for large BackoffOps) and charges a negative
// stall, corrupting the cost report. At high attempt counts every stall
// saturates instead, and the total stays exact, positive and predictable.
func TestRecoveryBackoffSaturates(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		run := func(backoff int64) *cost.Report {
			m := newMemMachine(t, 2, 4, workers)
			m.InjectFaults(persistentTransient{}, engine.RetryPolicy{MaxAttempts: 70, BackoffOps: backoff}, false)
			m.Phase(func(c *engine.MemCtx[int64]) { c.Write(c.Proc(), 1) })
			if !errors.Is(m.Err(), errScripted) {
				t.Fatalf("Err = %v, want the exhausted transient chain", m.Err())
			}
			r := m.Report()
			if got, want := r.NumPhases(), 69; got != want {
				t.Fatalf("NumPhases = %d, want %d recovery stalls", got, want)
			}
			for i, pc := range r.Phases {
				if pc.Time < 0 || pc.MaxOps < 0 {
					t.Fatalf("stall %d charged negative cost %+v — backoff overflowed", i, pc)
				}
				if i > 0 && pc.Time < r.Phases[i-1].Time {
					t.Fatalf("stall %d cheaper than stall %d — backoff stopped doubling monotonically", i, i-1)
				}
			}
			return r
		}

		// BackoffOps=1: stalls double up to the 2^32 exponent cap (attempts
		// 1..33), then hold there for the remaining 36 retries.
		r := run(1)
		if got, want := r.TotalTime, cost.Time(38*(int64(1)<<32)-1); got != want {
			t.Fatalf("TotalTime = %d, want %d (33 doubling stalls + 36 capped)", got, want)
		}

		// A maximal base charge saturates every stall at the ops ceiling from
		// the first retry instead of going negative at the first shift.
		r = run(math.MaxInt64)
		if got, want := r.TotalTime, cost.Time(69*(int64(1)<<40)); got != want {
			t.Fatalf("TotalTime = %d, want %d (69 ceiling stalls)", got, want)
		}
	})
}
