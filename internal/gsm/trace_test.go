package gsm

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// tracedRun executes a two-phase program: processor j reads cell j, then
// writes its info to cell n+j.
func tracedRun(t *testing.T, bits []int64) *Machine {
	t.Helper()
	n := len(bits)
	m, err := New(Config{P: n, Alpha: 1, Beta: 1, Gamma: 1, N: n, Cells: 2 * n})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTracing()
	if err := m.LoadInputs(bits); err != nil {
		t.Fatal(err)
	}
	vals := make([]Info, n)
	m.Phase(func(c *Ctx) { vals[c.Proc()] = c.Read(c.Proc()) })
	m.Phase(func(c *Ctx) { c.Write(n+c.Proc(), vals[c.Proc()]) })
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	return m
}

func TestTraceRecording(t *testing.T) {
	m := tracedRun(t, []int64{1, 0, 1})
	tr := m.TraceLog()
	if tr == nil {
		t.Fatal("trace missing")
	}
	if tr.NumPhases() != 2 {
		t.Fatalf("phases = %d, want 2", tr.NumPhases())
	}
}

func TestTraceProcKeySensitivity(t *testing.T) {
	a := tracedRun(t, []int64{1, 0, 1}).TraceLog()
	b := tracedRun(t, []int64{0, 0, 1}).TraceLog() // bit 0 flipped
	c := tracedRun(t, []int64{1, 0, 0}).TraceLog() // bit 2 flipped

	// Processor 0 read only input 0: its key differs between a and b but
	// not between a and c.
	if a.ProcKey(0, 1) == b.ProcKey(0, 1) {
		t.Error("proc 0 key must see its own bit flip")
	}
	if a.ProcKey(0, 1) != c.ProcKey(0, 1) {
		t.Error("proc 0 key must not see an unread bit flip")
	}
	// Processor 1 read only input 1 (same in all three).
	if a.ProcKey(1, 1) != b.ProcKey(1, 1) || a.ProcKey(1, 1) != c.ProcKey(1, 1) {
		t.Error("proc 1 key must be invariant")
	}
}

func TestTraceCellKeySemantics(t *testing.T) {
	m := tracedRun(t, []int64{1, 0})
	tr := m.TraceLog()
	// After phase 0 the scratch cells are still empty.
	if tr.CellKey(2, 0) != "∅" {
		t.Errorf("scratch cell after phase 0 = %q, want empty", tr.CellKey(2, 0))
	}
	// After phase 1 they carry the copied input atoms.
	if tr.CellKey(2, 1) == "∅" {
		t.Error("scratch cell after phase 1 must hold info")
	}
	// Distinct inputs give distinct end-of-phase cell keys.
	m2 := tracedRun(t, []int64{0, 0})
	if tr.CellKey(2, 1) == m2.TraceLog().CellKey(2, 1) {
		t.Error("cell key must reflect the value written")
	}
	// Out-of-range queries degrade to the empty key.
	if tr.CellKey(99, 0) != "∅" || tr.CellKey(0, 99) != "∅" || tr.CellKey(0, -1) != "∅" {
		t.Error("out-of-range cell keys must be empty")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m, err := New(Config{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: 1, Cells: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Phase(func(c *Ctx) {})
	if m.TraceLog() != nil {
		t.Error("tracing must be opt-in")
	}
}

func TestTraceReadsObservePrePhaseContents(t *testing.T) {
	// A reader and a writer touch different cells in the same phase; the
	// reader's trace must record the pre-phase contents even though the
	// writer commits at the same barrier.
	m, err := New(Config{P: 2, Alpha: 1, Beta: 1, Gamma: 1, N: 2, Cells: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTracing()
	if err := m.LoadInputs([]int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Phase 0: proc 1 writes scratch cell 2 (nobody reads it — the model
	// forbids read+write of one cell in one phase, which the simulator
	// enforces). Phase 1: proc 0 reads it.
	m.Phase(func(c *Ctx) {
		if c.Proc() == 1 {
			c.Write(2, NewInfo(42))
		}
	})
	m.Phase(func(c *Ctx) {
		if c.Proc() == 0 {
			c.Read(2)
		}
	})
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	tr := m.TraceLog()
	// Proc 0's phase-1 read observed the committed 42.
	key := tr.ProcKey(0, 1)
	if want := "p0||2:42"; key != want {
		t.Errorf("proc 0 key = %q, want %q", key, want)
	}
	// Cell 2's end-of-phase keys: 42 from phase 0 onward.
	if tr.CellKey(2, 0) != "42" || tr.CellKey(2, 1) != "42" {
		t.Errorf("cell keys = %q / %q, want 42 / 42", tr.CellKey(2, 0), tr.CellKey(2, 1))
	}
}

// infoKey renders byte-identically to its fmt form: "∅" for the empty
// set, otherwise the elements in %d joined by commas.
func TestInfoKeyMatchesFmt(t *testing.T) {
	ref := func(in Info) string {
		if len(in) == 0 {
			return "∅"
		}
		parts := make([]string, len(in))
		for i, a := range in {
			parts[i] = fmt.Sprintf("%d", a)
		}
		return strings.Join(parts, ",")
	}
	for _, in := range []Info{
		nil, {}, {0}, {7}, {-3}, {math.MinInt64}, {math.MaxInt64},
		{0, 1, 2, 999, 1000, 123456},
		{math.MinInt64, -1, 0, 1, math.MaxInt64},
	} {
		if got, want := infoKey(in), ref(in); got != want {
			t.Errorf("infoKey(%v) = %q, want %q", []int64(in), got, want)
		}
	}
}
