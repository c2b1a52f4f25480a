package bsp

import (
	"fmt"
	"math"
	"testing"
)

// traced builds a 3-component machine and runs two supersteps of a fixed
// message pattern with tracing on.
func traced(t *testing.T, workers int) *Machine {
	t.Helper()
	m := mk(t, Config{P: 3, G: 1, L: 2, N: 3, PrivCells: 1, Workers: workers})
	m.EnableTracing()
	// Superstep 0: a ring shift plus a fan-in to component 0.
	m.Superstep(func(c *Ctx) {
		c.Send((c.Comp()+1)%3, 7, int64(10+c.Comp()))
		if c.Comp() > 0 {
			c.Send(0, 8, int64(c.Comp()))
		}
	})
	// Superstep 1: component 0 echoes its inbox size.
	m.Superstep(func(c *Ctx) {
		if c.Comp() == 0 {
			c.Send(1, 9, int64(len(c.Incoming())))
		}
	})
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTraceRecordsSupersteps(t *testing.T) {
	m := traced(t, 1)
	tr := m.TraceLog()
	if tr.NumPhases() != 2 {
		t.Fatalf("NumPhases = %d, want 2", tr.NumPhases())
	}
	// Deliveries to component 0 in superstep 0, in deterministic order:
	// ascending sender, issue order within a sender (component 2's ring
	// message precedes its fan-in message).
	if got, want := tr.CellKey(0, 0), "from=1 tag=8 val=1;from=2 tag=7 val=12;from=2 tag=8 val=2"; got != want {
		t.Errorf("CellKey(0, 0) = %q, want %q", got, want)
	}
	// Component 1's ring message reaches component 2.
	if got, want := tr.CellKey(2, 0), "from=1 tag=7 val=11"; got != want {
		t.Errorf("CellKey(2, 0) = %q, want %q", got, want)
	}
	// h-relation of superstep 0: component 0 receives 3 messages (the ring
	// message from 2 plus both fan-in messages), the largest s_i/r_i.
	for ph, want := range []int64{3, 1} {
		if got := m.Report().Phases[ph].MaxRW; got != want {
			t.Errorf("superstep %d: h = %d, want %d", ph, got, want)
		}
	}
	if tr.CellKey(0, 5) != "∅" || tr.CellKey(9, 0) != "∅" || tr.ProcKey(9, 0) != "" {
		t.Error("out-of-range keys must be empty")
	}
}

func TestTraceKnowledgeKeys(t *testing.T) {
	tr := traced(t, 1).TraceLog()
	// A component's observations through superstep t are the deliveries of
	// earlier supersteps: at t=0 every inbox is empty, at t=1 component 1
	// has seen the superstep-0 deliveries.
	if got, want := tr.ProcKey(1, 0), "p1|"; got != want {
		t.Errorf("ProcKey(1, 0) = %q, want %q", got, want)
	}
	if got, want := tr.ProcKey(1, 1), "p1||from=0 tag=7 val=10"; got != want {
		t.Errorf("ProcKey(1, 1) = %q, want %q", got, want)
	}
	if got, want := tr.CellKey(1, 1), "from=0 tag=9 val=3"; got != want {
		t.Errorf("CellKey(1, 1) = %q, want %q", got, want)
	}
	if got, want := tr.CellKey(2, 1), "∅"; got != want {
		t.Errorf("CellKey(2, 1) = %q, want %q", got, want)
	}
}

func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	seq := traced(t, 1).TraceLog()
	par := traced(t, 8).TraceLog()
	for p := 0; p < 3; p++ {
		for ph := 0; ph < 2; ph++ {
			if a, b := seq.ProcKey(p, ph), par.ProcKey(p, ph); a != b {
				t.Errorf("ProcKey(%d, %d): Workers=1 %q, Workers=8 %q", p, ph, a, b)
			}
			if a, b := seq.CellKey(p, ph), par.CellKey(p, ph); a != b {
				t.Errorf("CellKey(%d, %d): Workers=1 %q, Workers=8 %q", p, ph, a, b)
			}
		}
	}
}

// The event-stream payload of a message renders byte-identically to its
// fmt form.
func TestRenderMatchesFmt(t *testing.T) {
	for _, msg := range []Message{
		{},
		{From: 3, Tag: 1, Val: 42},
		{From: 1023, Tag: -7, Val: -1},
		{From: math.MaxInt32, Tag: math.MinInt64, Val: math.MaxInt64},
		{From: -1, Tag: math.MaxInt64, Val: math.MinInt64},
	} {
		want := fmt.Sprintf("from=%d tag=%d val=%d", msg.From, msg.Tag, msg.Val)
		if got := (bspModel{}).Render(msg); got != want {
			t.Errorf("Render(%+v) = %q, want %q", msg, got, want)
		}
	}
}
