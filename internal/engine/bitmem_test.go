package engine_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/engine"
)

// bitMachine is the minimal bit-packed adapter, the BitMem twin of
// memMachine: the same cost formula, so an algorithm run on both
// machines over 0/1 data must produce identical reports and streams.
type bitMachine struct {
	engine.BitMem
}

type bitModel struct{}

func (bitModel) Name() string     { return "TEST" }
func (bitModel) Entity() string   { return "processor" }
func (bitModel) Prefix() string   { return "test" }
func (bitModel) Violation() error { return errTestViolation }

func (bitModel) PhaseCost(o engine.Outcome) cost.PhaseCost {
	k := max(o.KRead, o.KWrite, 1)
	return cost.PhaseCost{
		MaxOps:     o.MaxOps,
		MaxRW:      o.MaxRW,
		Contention: k,
		Time:       cost.Time(max(o.MaxOps, o.MaxRW, k)),
		IsRound:    true,
	}
}

func newBitMachine(t *testing.T, p, cells, workers int) *bitMachine {
	t.Helper()
	params := cost.Params{G: 1, P: p}
	validConfig(t, params, cells, workers)
	m := &bitMachine{}
	if err := m.InitBits(bitModel{}, params, p, cells); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBitMemLifecycle(t *testing.T) {
	m := newBitMachine(t, 4, 8, 1)
	for i := 0; i < 4; i++ {
		m.SetBit(i, i%2 == 1)
	}
	m.Phase(func(c *engine.BitCtx) {
		v := c.Read(c.Proc())
		c.Write(c.Proc()+4, !v)
	})
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got, want := m.Bit(i+4), i%2 == 0; got != want {
			t.Errorf("bit %d = %v, want %v", i+4, got, want)
		}
	}
	// Concurrent writes to one cell: last write of the highest processor
	// wins (procs 0..3 write their parity; proc 3 writes true).
	m.Phase(func(c *engine.BitCtx) {
		c.Op(2)
		c.Write(0, c.Proc()%2 == 1)
	})
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if !m.Bit(0) {
		t.Error("winner: bit 0 = false, want last write of processor 3 (true)")
	}
	r := m.Report()
	if r.NumPhases() != 2 {
		t.Fatalf("NumPhases = %d, want 2", r.NumPhases())
	}
	if got, want := r.Phases[1].Contention, int64(4); got != want {
		t.Errorf("phase 1 contention = %d, want %d", got, want)
	}
}

func TestBitMemReadWordStraddle(t *testing.T) {
	m := newBitMachine(t, 1, 130, 1)
	// Set bits 60..68 plus 127 and 129: the reads below straddle the
	// word boundaries at 64 and 128.
	for _, b := range []int{60, 61, 62, 63, 64, 65, 66, 67, 68, 127, 129} {
		m.SetBit(b, true)
	}
	var w60, w120, one uint64
	m.Phase(func(c *engine.BitCtx) {
		w60 = c.ReadWord(60, 10)   // bits 60..69 → low 9 set
		w120 = c.ReadWord(120, 10) // bits 120..129 → 127 and 129 set
		one = c.ReadWord(68, 1)
	})
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(0x1FF); w60 != want {
		t.Errorf("ReadWord(60,10) = %#x, want %#x", w60, want)
	}
	if want := uint64(1<<7 | 1<<9); w120 != want {
		t.Errorf("ReadWord(120,10) = %#x, want %#x", w120, want)
	}
	if one != 1 {
		t.Errorf("ReadWord(68,1) = %d, want 1", one)
	}
	// Charged as 21 per-cell reads.
	if got := m.Report().Phases[0].MaxRW; got != 21 {
		t.Errorf("m_rw = %d, want 21", got)
	}
}

func TestBitMemBounds(t *testing.T) {
	cases := []struct {
		name string
		body func(c *engine.BitCtx)
		want string
	}{
		{"read", func(c *engine.BitCtx) { c.Read(8) }, "read out of range: cell 8 of 8"},
		{"write", func(c *engine.BitCtx) { c.Write(-1, true) }, "write out of range: cell -1 of 8"},
		{"read word", func(c *engine.BitCtx) { c.ReadWord(4, 5) }, "read word out of range: cells [4,9) of 8"},
		{"read word len", func(c *engine.BitCtx) { c.ReadWord(0, 65) }, "read word out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newBitMachine(t, 2, 8, 1)
			m.Phase(func(c *engine.BitCtx) {
				if c.Proc() == 0 {
					tc.body(c)
				}
			})
			err := m.Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestBitMemViolationAborts(t *testing.T) {
	m := newBitMachine(t, 2, 8, 1)
	m.SetBit(3, true)
	m.Phase(func(c *engine.BitCtx) {
		if c.Proc() == 0 {
			c.Read(3)
		} else {
			c.Write(3, false)
		}
	})
	err := m.Err()
	if !errors.Is(err, errTestViolation) {
		t.Fatalf("err = %v, want wrap of the violation sentinel", err)
	}
	if want := "cell 3 both read and written in phase 0"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want it to contain %q", err, want)
	}
	if m.Report().NumPhases() != 0 {
		t.Errorf("violating phase was charged: NumPhases = %d", m.Report().NumPhases())
	}
	if !m.Bit(3) {
		t.Error("violating phase applied its write")
	}
}

func TestBitMemAddressSpaceCap(t *testing.T) {
	m := &bitMachine{}
	err := m.InitBits(bitModel{}, cost.Params{G: 1, P: 1}, 1, 1<<30+1)
	if err == nil || !strings.Contains(err.Error(), "exceeds the 1073741824-cell address space") {
		t.Fatalf("InitBits over cap = %v, want address-space error", err)
	}
	m2 := newBitMachine(t, 1, 64, 1)
	m2.Grow(200)
	if m2.MemSize() != 200 {
		t.Errorf("MemSize after Grow = %d, want 200", m2.MemSize())
	}
	m2.SetBit(199, true)
	if !m2.Bit(199) {
		t.Error("bit 199 lost after Grow")
	}
	if err := m2.Err(); err != nil {
		t.Fatalf("Err after Grow within the cap = %v", err)
	}
	m2.Grow(1 << 30 * 2)
	const want = "test: memory of 2147483648 cells exceeds the 1073741824-cell address space"
	if err := m2.Err(); err == nil || err.Error() != want {
		t.Fatalf("Err after Grow over the cap = %v, want %q", err, want)
	}
	if m2.MemSize() != 200 {
		t.Fatalf("MemSize after refused Grow = %d, want 200", m2.MemSize())
	}
}

// TestBitMemStreamMatchesWordStream is the packing contract: the same
// Boolean request sequence on the word-valued and bit-packed machines
// yields byte-identical event streams and cost reports.
func TestBitMemStreamMatchesWordStream(t *testing.T) {
	const p, cells = 4, 16
	bits := []bool{true, false, true, true}

	wm := newMemMachine(t, p, cells, 1)
	wev := &engine.EventLog{}
	wm.AddObserver(wev)
	for i, b := range bits {
		if b {
			wm.Data()[i] = 1
		}
	}
	wm.Phase(func(c *engine.MemCtx[int64]) {
		v := c.Read(c.Proc())
		c.Op(1)
		c.Write(c.Proc()+4, 1-v)
	})
	if err := wm.Err(); err != nil {
		t.Fatal(err)
	}

	bm := newBitMachine(t, p, cells, 1)
	bev := &engine.EventLog{}
	bm.AddObserver(bev)
	for i, b := range bits {
		bm.SetBit(i, b)
	}
	bm.Phase(func(c *engine.BitCtx) {
		v := c.Read(c.Proc())
		c.Op(1)
		c.Write(c.Proc()+4, !v)
	})
	if err := bm.Err(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(wev.Lines(), bev.Lines()) {
		t.Errorf("streams differ:\nword:\n%s\nbit:\n%s", wev.String(), bev.String())
	}
	if !reflect.DeepEqual(wm.Report().Phases, bm.Report().Phases) {
		t.Errorf("reports differ:\nword: %+v\nbit: %+v", wm.Report().Phases, bm.Report().Phases)
	}
}

func TestBitMemDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]string, []uint64) {
		const p, cells = 32, 256
		m := newBitMachine(t, p, cells, workers)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		for i := 0; i < p; i++ {
			m.SetBit(i*3%cells, true)
		}
		m.Phase(func(c *engine.BitCtx) {
			w := c.ReadWord(c.Proc()*4, 4)
			c.Op(4)
			c.Write(128+c.Proc(), w != 0)
		})
		m.Phase(func(c *engine.BitCtx) {
			// Contended writes across chunk boundaries.
			c.Write(255, c.Proc()%2 == 0)
		})
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return ev.Lines(), append([]uint64(nil), m.Words()...)
	}
	seqEv, seqWords := run(1)
	parEv, parWords := run(8)
	if !reflect.DeepEqual(seqEv, parEv) {
		t.Error("event streams differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(seqWords, parWords) {
		t.Error("final packed words differ between Workers=1 and Workers=8")
	}
}

// TestBitMemSteadyStateAllocs: the packed engine reuses contexts,
// columns and commit scratch under both barriers; a warmed-up phase
// allocates only its dispatch closures, regardless of p or the bit volume. The
// recycled EventLog keeps observation allocation-free too (payloads are
// interned "0"/"1").
func TestBitMemSteadyStateAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p = 64
		m := newBitMachine(t, p, 64*p, workers)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		body := func(c *engine.BitCtx) {
			w := c.ReadWord(c.Proc()*32, 32)
			c.Write(32*p+c.Proc(), w&1 == 1)
		}
		m.Phase(body)
		m.Phase(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		checkWarmAllocs(t, warmPhaseAllocs, func() {
			ev.Reset()
			m.Phase(body)
		})
	})
}
