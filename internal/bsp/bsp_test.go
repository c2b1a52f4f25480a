package bsp

import (
	"reflect"
	"testing"
	"testing/quick"
)

func mk(t *testing.T, c Config) *Machine {
	t.Helper()
	m, err := New(c)
	if err != nil {
		t.Fatalf("New(%+v): %v", c, err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{P: 0, G: 1, L: 1, N: 1},
		{P: 1, G: 0, L: 1, N: 1},
		{P: 1, G: 2, L: 1, N: 1}, // L < g
		{P: 1, G: 1, L: 0, N: 1}, // L < 1
		{P: 1, G: 1, L: 1, N: 0}, // n < 1
		{P: 1, G: 1, L: 1, N: 1, PrivCells: -1},
		{P: 1, G: 1, L: 1, N: 1, Workers: -1},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, c)
		}
	}
	if _, err := New(Config{P: 4, G: 2, L: 8, N: 16, PrivCells: 4}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{})
}

func TestBlockRange(t *testing.T) {
	// n=10, p=4: sizes must be 3,3,2,2 (⌈n/p⌉ or ⌊n/p⌋), covering [0,10).
	sizes := []int{}
	prev := 0
	for i := 0; i < 4; i++ {
		lo, hi := BlockRange(10, 4, i)
		if lo != prev {
			t.Fatalf("block %d starts at %d, want %d", i, lo, prev)
		}
		sizes = append(sizes, hi-lo)
		prev = hi
	}
	if prev != 10 {
		t.Fatalf("blocks cover [0,%d), want [0,10)", prev)
	}
	want := []int{3, 3, 2, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestBlockRangeProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw%1000) + 1
		p := int(pRaw%32) + 1
		prev := 0
		q := n / p
		for i := 0; i < p; i++ {
			lo, hi := BlockRange(n, p, i)
			if lo != prev || hi < lo {
				return false
			}
			sz := hi - lo
			if sz != q && sz != q+1 {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScatterPeek(t *testing.T) {
	m := mk(t, Config{P: 4, G: 1, L: 2, N: 10, PrivCells: 8})
	in := make([]int64, 10)
	for i := range in {
		in[i] = int64(i * 11)
	}
	if err := m.Scatter(in); err != nil {
		t.Fatal(err)
	}
	// Component 2 holds inputs [6,8) at private addresses 0,1.
	lo, _ := BlockRange(10, 4, 2)
	if got := m.Peek(2, 0); got != in[lo] {
		t.Errorf("Peek(2,0) = %d, want %d", got, in[lo])
	}
	if err := m.Scatter(in[:5]); err == nil {
		t.Error("want length-mismatch error")
	}
	small := mk(t, Config{P: 1, G: 1, L: 1, N: 10, PrivCells: 2})
	if err := small.Scatter(in); err == nil {
		t.Error("want private-memory-too-small error")
	}
}

func TestPeekOutOfRangeRecordsError(t *testing.T) {
	cfg := Config{P: 4, G: 1, L: 2, N: 10, PrivCells: 8}

	m := mk(t, cfg)
	if got := m.Peek(-1, 0); got != 0 {
		t.Errorf("Peek(-1, 0) = %d, want 0", got)
	}
	if err := m.Err(); err == nil {
		t.Error("out-of-range component Peek must record a machine error")
	}

	m = mk(t, cfg)
	if got := m.Peek(0, 99); got != 0 {
		t.Errorf("Peek(0, 99) = %d, want 0", got)
	}
	if err := m.Err(); err == nil {
		t.Error("out-of-range cell Peek must record a machine error")
	}

	m = mk(t, cfg)
	m.Peek(3, 7)
	if err := m.Err(); err != nil {
		t.Errorf("in-range Peek recorded error: %v", err)
	}
}

func TestMessageDelivery(t *testing.T) {
	m := mk(t, Config{P: 3, G: 1, L: 1, N: 3, PrivCells: 4})
	// Superstep 1: everyone sends its id to component 0.
	m.Superstep(func(c *Ctx) {
		if len(c.Incoming()) != 0 {
			t.Error("first superstep must have empty inbox")
		}
		c.Send(0, int64(c.Comp()), int64(c.Comp()*10))
	})
	// Superstep 2: component 0 sees all three, sorted by sender.
	m.Superstep(func(c *Ctx) {
		if c.Comp() != 0 {
			return
		}
		in := c.Incoming()
		if len(in) != 3 {
			t.Errorf("inbox size = %d, want 3", len(in))
			return
		}
		for i, msg := range in {
			if msg.From != i || msg.Val != int64(i*10) {
				t.Errorf("msg %d = %+v", i, msg)
			}
		}
	})
	// Superstep 3: old messages are gone.
	m.Superstep(func(c *Ctx) {
		if len(c.Incoming()) != 0 {
			t.Error("messages must not persist across supersteps")
		}
	})
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
}

func TestCurrentSuperstepMessagesInvisible(t *testing.T) {
	m := mk(t, Config{P: 2, G: 1, L: 1, N: 2, PrivCells: 1})
	seen := make([]int, 2)
	m.Superstep(func(c *Ctx) {
		c.Send(1-c.Comp(), 0, 1)
		seen[c.Comp()] = len(c.Incoming())
	})
	if seen[0] != 0 || seen[1] != 0 {
		t.Errorf("components saw same-superstep messages: %v", seen)
	}
}

func TestSuperstepCost(t *testing.T) {
	// p=4, g=3, L=5. Component 0 sends 2 messages to component 1:
	// h = 2, cost = max(0, 3·2, 5) = 6.
	m := mk(t, Config{P: 4, G: 3, L: 5, N: 4, PrivCells: 1})
	m.Superstep(func(c *Ctx) {
		if c.Comp() == 0 {
			c.Send(1, 0, 1)
			c.Send(1, 1, 2)
		}
	})
	if got := m.Report().Phases[0].Time; got != 6 {
		t.Errorf("superstep cost = %d, want 6", got)
	}
	// An idle superstep costs L.
	m.Superstep(func(c *Ctx) {})
	if got := m.Report().Phases[1].Time; got != 5 {
		t.Errorf("idle superstep cost = %d, want L=5", got)
	}
	// Local work dominating.
	m.Superstep(func(c *Ctx) { c.Work(100) })
	if got := m.Report().Phases[2].Time; got != 100 {
		t.Errorf("work superstep cost = %d, want 100", got)
	}
}

func TestHRelationIsMaxOfSendAndReceive(t *testing.T) {
	// All 8 components send one message to component 0: every sender has
	// s_i = 1 but component 0 receives r_0 = 8 ⇒ h = 8.
	m := mk(t, Config{P: 8, G: 1, L: 1, N: 8, PrivCells: 1})
	m.Superstep(func(c *Ctx) { c.Send(0, 0, 1) })
	ph := m.Report().Phases[0]
	if ph.MaxRW != 8 {
		t.Errorf("h = %d, want 8", ph.MaxRW)
	}
	if ph.Time != 8 {
		t.Errorf("cost = %d, want 8", ph.Time)
	}
}

func TestSendValidation(t *testing.T) {
	m := mk(t, Config{P: 2, G: 1, L: 1, N: 2, PrivCells: 1})
	m.Superstep(func(c *Ctx) { c.Send(5, 0, 1) })
	if m.Err() == nil {
		t.Error("want invalid-destination error")
	}
	before := m.Report().NumPhases()
	m.Superstep(func(c *Ctx) {})
	if m.Report().NumPhases() != before {
		t.Error("superstep ran after error")
	}
}

func TestRoundClassification(t *testing.T) {
	// n=64, p=8 ⇒ n/p=8; round budget h ≤ 32. A superstep routing an
	// 8-relation is a round; one routing a 64-relation is not.
	m := mk(t, Config{P: 8, G: 1, L: 1, N: 64, PrivCells: 1})
	m.Superstep(func(c *Ctx) {
		for j := 0; j < 8; j++ {
			c.Send((c.Comp()+1)%8, int64(j), 1)
		}
	})
	m.Superstep(func(c *Ctx) {
		for j := 0; j < 64; j++ {
			c.Send(0, int64(j), 1)
		}
	})
	r := m.Report()
	if !r.Phases[0].IsRound {
		t.Error("8-relation superstep should be a round")
	}
	if r.Phases[1].IsRound {
		t.Error("64-relation superstep should not be a round")
	}
}

func TestPrivateMemoryPersists(t *testing.T) {
	m := mk(t, Config{P: 2, G: 1, L: 1, N: 2, PrivCells: 2})
	m.Superstep(func(c *Ctx) {
		c.Priv()[0] = int64(c.Comp() + 100)
	})
	m.Superstep(func(c *Ctx) {
		c.Priv()[1] = c.Priv()[0] * 2
	})
	if m.Peek(1, 1) != 202 {
		t.Errorf("Peek(1,1) = %d, want 202", m.Peek(1, 1))
	}
}

// Message routing must be independent of the Workers setting: delivery
// order is (sender id, send order), never chunk layout. The workload fans
// messages across components over several supersteps so the inbox
// ping-pong recycling is covered too.
func TestRoutingDeterministicAcrossWorkers(t *testing.T) {
	const p, steps = 48, 4
	run := func(workers int) ([][]Message, *Machine) {
		m := MustNew(Config{P: p, G: 2, L: 4, N: p, PrivCells: 4, Workers: workers})
		var boxes [][]Message
		for s := 0; s < steps; s++ {
			s := s
			m.Superstep(func(c *Ctx) {
				for j := 0; j <= c.Comp()%3; j++ {
					c.Send((c.Comp()*5+j+s)%p, int64(s), int64(c.Comp()*100+j))
				}
			})
			m.Superstep(func(c *Ctx) {
				in := c.Incoming()
				cp := make([]Message, len(in))
				copy(cp, in)
				if c.Comp() == 0 {
					boxes = append(boxes, cp)
				}
			})
		}
		if m.Err() != nil {
			t.Fatal(m.Err())
		}
		return boxes, m
	}
	seqBoxes, seqM := run(1)
	for _, w := range []int{2, 8} {
		parBoxes, parM := run(w)
		if !reflect.DeepEqual(seqBoxes, parBoxes) {
			t.Errorf("Workers=%d: component 0 inboxes differ\nseq: %v\npar: %v", w, seqBoxes, parBoxes)
		}
		if !reflect.DeepEqual(*seqM.Report(), *parM.Report()) {
			t.Errorf("Workers=%d: cost reports differ", w)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []int64 {
		m := MustNew(Config{P: 16, G: 2, L: 4, N: 16, PrivCells: 20, Workers: 3})
		m.Superstep(func(c *Ctx) {
			for j := 0; j < 4; j++ {
				c.Send((c.Comp()+j)%16, int64(j), int64(c.Comp()*10+j))
			}
		})
		m.Superstep(func(c *Ctx) {
			s := int64(0)
			for i, msg := range c.Incoming() {
				s += msg.Val * int64(i+1)
			}
			c.Priv()[0] = s
		})
		out := make([]int64, 16)
		for i := range out {
			out[i] = m.Peek(i, 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic result at component %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestGetters(t *testing.T) {
	m := mk(t, Config{P: 3, G: 2, L: 9, N: 7, PrivCells: 1})
	if m.P() != 3 || m.G() != 2 || m.L() != 9 || m.N() != 7 {
		t.Errorf("getters: P=%d G=%d L=%d N=%d", m.P(), m.G(), m.L(), m.N())
	}
}

// TestSendBatchSteadyStateAllocs pins the batch send path, Ctx.SendBatch
// and SendFanout into the engine's Sends.StageBatch: once warm, a
// superstep allocates exactly the engine's two dispatch closures plus
// Superstep's wrapper closure at Workers 1, and no more than 12 objects
// at Workers 4 (the fan-out's goroutine captures), whatever p and the
// batch length.
func TestSendBatchSteadyStateAllocs(t *testing.T) {
	const p = 64
	dsts := []int32{1, 2, 3, 5, 8}
	tags := []int64{10, 20, 30, 50, 80}
	vals := []int64{100, 200, 300, 500, 800}
	for _, workers := range []int{1, 4} {
		m := MustNew(Config{P: p, G: 1, L: 1, N: p, PrivCells: 1, Workers: workers})
		body := func(c *Ctx) {
			if c.Comp()%2 == 0 {
				c.SendBatch(dsts, tags, vals)
			} else {
				c.SendFanout(dsts, 7, int64(c.Comp()))
			}
		}
		m.Superstep(body)
		m.Superstep(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() { m.Superstep(body) })
		if in := m.Incoming(1); len(in) != p {
			t.Fatalf("Workers %d: component 1 received %d messages, want %d", workers, len(in), p)
		}
		if workers == 1 && got != 3 {
			t.Errorf("Workers 1: warm batch superstep allocates %.0f objects/run, want exactly 3", got)
		}
		if workers > 1 && got > 12 {
			t.Errorf("Workers %d: warm batch superstep allocates %.0f objects/run, want ≤ 12", workers, got)
		}
	}
}
