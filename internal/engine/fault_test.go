package engine_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/engine"
)

// scriptInjector fires a scripted verdict the first time each listed
// phase is consulted at attempt 1 — the minimal deterministic Injector,
// so these tests exercise the engine's recovery machinery without the
// fault-plan layer.
type scriptInjector struct {
	verdicts map[int]engine.Verdict
	fired    map[int]bool
}

func scripted(verdicts map[int]engine.Verdict) *scriptInjector {
	return &scriptInjector{verdicts: verdicts, fired: make(map[int]bool)}
}

func (s *scriptInjector) Inject(ic engine.InjectCtx) engine.Verdict {
	if ic.Attempt != 1 || s.fired[ic.Phase] {
		return engine.Verdict{}
	}
	v, ok := s.verdicts[ic.Phase]
	if !ok {
		return engine.Verdict{}
	}
	s.fired[ic.Phase] = true
	return v
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

// Rollback must restore the cost report exactly: a transient-aborted
// attempt leaves no trace beyond the explicitly charged recovery stall,
// so a faulted run costs precisely the clean run plus its stalls.
func TestRollbackRestoresCostExactly(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		run := func(inj engine.Injector) *memMachine {
			m := newMemMachine(t, 4, 8, workers)
			if inj != nil {
				m.InjectFaults(inj, engine.RetryPolicy{MaxAttempts: 3, BackoffOps: 2}, false)
			}
			for phase := 0; phase < 3; phase++ {
				m.Phase(func(c *engine.MemCtx[int64]) {
					c.Op(2)
					c.Write(c.Proc(), int64(phase))
				})
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			return m
		}

		clean := run(nil)
		faulted := run(scripted(map[int]engine.Verdict{
			1: {Class: engine.FaultTransient, Err: errScripted, Proc: -1, Addr: 0},
		}))

		// One transient: one aborted attempt (rolled back, uncharged) + one
		// recovery stall of BackoffOps=2 local ops → cost 2 under the test
		// model, then the retried phase commits at the clean phase's price.
		cr, fr := clean.Report(), faulted.Report()
		if got, want := fr.NumPhases(), cr.NumPhases()+1; got != want {
			t.Fatalf("NumPhases = %d, want %d (clean + 1 stall)", got, want)
		}
		if got, want := fr.TotalTime, cr.TotalTime+2; got != want {
			t.Fatalf("TotalTime = %d, want %d (clean + stall cost 2)", got, want)
		}
		if got, want := fr.Work, cr.Work+2*4; got != want {
			t.Fatalf("Work = %d, want %d (stall ops charged on all 4 processors)", got, want)
		}
		for i := range clean.Data() {
			if clean.Data()[i] != faulted.Data()[i] {
				t.Fatalf("cell %d: faulted=%d clean=%d — rollback left residue",
					i, faulted.Data()[i], clean.Data()[i])
			}
		}
		fs := faulted.FaultStats()
		if fs.Injected != 1 || fs.Recovered != 1 || fs.Retries != 1 {
			t.Fatalf("stats = %+v, want one injected/recovered/retried", fs)
		}
	})
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
