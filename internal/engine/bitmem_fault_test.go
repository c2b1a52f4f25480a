package engine_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// The bit-packed engine shares Core's recovery machinery but has its own
// checkpoint, corruption and commit paths over packed words; these tests
// are the BitMem twins of the word-valued fault-path suite. Its rollback
// differential runs on BitMem too (the bit program of
// TestRollbackRestoresCostExactly).

// A strict crash verdict during a bit-packed commit aborts the phase:
// none of the attempt's packed writes apply, the machine poisons with a
// diagnosable chain, and later phases add nothing.
func TestBitMemCrashAbortsDuringPackedCommit(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newBitMachine(t, 4, 8, workers)
		m.InjectFaults(scripted(map[int]engine.Verdict{
			1: {Class: engine.FaultCrash, Err: errScripted, Proc: 2, Addr: -1},
		}), engine.RetryPolicy{}, false)

		m.Phase(func(c *engine.BitCtx) { c.Write(c.Proc(), true) })   // commits
		m.Phase(func(c *engine.BitCtx) { c.Write(c.Proc()+4, true) }) // crashes at the barrier
		m.Phase(func(c *engine.BitCtx) { c.Write(0, false) })         // poisoned: never runs

		err := m.Err()
		if !errors.Is(err, errScripted) {
			t.Fatalf("Err = %v, want the crash cause in the chain", err)
		}
		if !strings.Contains(err.Error(), "phase 1") {
			t.Fatalf("Err = %q, want the crash phase in the message", err)
		}
		for i := 0; i < 4; i++ {
			if !m.Bit(i) {
				t.Errorf("bit %d lost: the committed phase must survive the crash", i)
			}
			if m.Bit(i + 4) {
				t.Errorf("bit %d set: the crashed attempt's packed writes applied", i+4)
			}
		}
		if got := m.Report().NumPhases(); got != 1 {
			t.Errorf("NumPhases = %d, want only the committed phase charged", got)
		}
	})
}

// A degraded crash during a packed commit masks the victim instead of
// poisoning: the crash phase itself still commits, and the processor
// stops contributing from the next phase on.
func TestBitMemDegradedCrashMasksProc(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newBitMachine(t, 4, 16, workers)
		m.InjectFaults(scripted(map[int]engine.Verdict{
			0: {Class: engine.FaultCrash, Err: errScripted, Proc: 2, Addr: -1},
		}), engine.RetryPolicy{}, true)

		m.Phase(func(c *engine.BitCtx) { c.Write(c.Proc(), true) }) // crash commits at this barrier
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if !m.Bit(i) {
				t.Errorf("bit %d lost: the crash phase must still commit", i)
			}
		}
		if !m.CrashedProc(2) || m.CrashedCount() != 1 {
			t.Fatalf("crash mask: CrashedProc(2)=%t count=%d, want the scripted victim masked",
				m.CrashedProc(2), m.CrashedCount())
		}
		if got := m.Survivors(); len(got) != 3 {
			t.Fatalf("Survivors = %v, want 3 processors", got)
		}
	})
}

// The packed fault paths obey the Workers determinism contract: the
// observer stream, the final word image and the fault accounting are
// byte-identical at Workers=1 and Workers=8 under an active injector
// (run with -race in CI: the packed recovery path must be race-clean).
func TestBitMemFaultDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]string, []uint64, engine.FaultStats) {
		const p, cells = 8, 256
		m := newBitMachine(t, p, cells, workers)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		m.InjectFaults(scripted(map[int]engine.Verdict{
			1: {Class: engine.FaultTransient, Err: errScripted, Proc: -1, Addr: 3},
			3: {Class: engine.FaultCrash, Err: errScripted, Proc: 5, Addr: -1},
		}), engine.RetryPolicy{}, true)
		for phase := 0; phase < 5; phase++ {
			m.Phase(func(c *engine.BitCtx) {
				c.Op(1)
				w := c.ReadWord(c.Proc()*8, 8)
				c.Write(128+(c.Proc()+phase)%64, w&1 == 0)
			})
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return ev.Lines(), append([]uint64(nil), m.Words()...), m.FaultStats()
	}
	seqEv, seqWords, seqStats := run(1)
	parEv, parWords, parStats := run(8)
	if !reflect.DeepEqual(seqEv, parEv) {
		t.Error("event streams differ between Workers=1 and Workers=8 under injection")
	}
	if !reflect.DeepEqual(seqWords, parWords) {
		t.Error("final packed words differ between Workers=1 and Workers=8 under injection")
	}
	if seqStats != parStats {
		t.Errorf("fault stats differ: W1=%+v W8=%+v", seqStats, parStats)
	}
}
