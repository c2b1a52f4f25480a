package engine_test

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cost"
	"repro/internal/engine"
)

var errTestViolation = errors.New("test: memory access rule violation")

// memMachine is a minimal last-writer-wins shared-memory adapter: the
// smallest possible Model, so the tests exercise the engine lifecycle
// itself rather than any simulator's cost logic.
type memMachine struct {
	engine.Mem[int64]
}

type memModel struct{}

func (memModel) Name() string     { return "TEST" }
func (memModel) Entity() string   { return "processor" }
func (memModel) Prefix() string   { return "test" }
func (memModel) Violation() error { return errTestViolation }

func (memModel) Apply(mem []int64, addrs []int32, vals []int64) {
	for i, j := 0, 0; i < len(addrs); {
		a, n, next, fill := engine.RunFill(addrs, i)
		if fill {
			for k := range n {
				mem[int(a)+k] = vals[j]
			}
			j++
		} else {
			j += copy(mem[a:int(a)+n], vals[j:j+n])
		}
		i = next
	}
}

func (memModel) Render(v int64) string { return strconv.FormatInt(v, 10) }

func (memModel) PhaseCost(o engine.Outcome) cost.PhaseCost {
	k := max(o.KRead, o.KWrite, 1)
	return cost.PhaseCost{
		MaxOps:     o.MaxOps,
		MaxRW:      o.MaxRW,
		Contention: k,
		Time:       cost.Time(max(o.MaxOps, o.MaxRW, k)),
		IsRound:    true,
	}
}

// barrierWorkers are the Workers settings the lifecycle, violation and
// fault tests configure their machines with. Each test machine validates
// its setting the way every adapter does (ValidateConfig), and Workers
// then has no effect on how the machine runs, so every check, the exact
// allocation pins included, must hold at each setting.
var barrierWorkers = []int{1, 4}

// warmPhaseAllocs is the exact allocation count of one warm phase, at
// every Workers setting and on every attempt of a retried phase: a
// phase runs its bodies on the calling goroutine, so neither dispatch
// closure escapes, and contexts, request columns, commit scratch and the
// report are reused. It does not depend on p or on the request volume.
const warmPhaseAllocs = 0

// checkWarmAllocs measures phase, which must already be warm (run twice),
// and checks that it allocates exactly want objects per run.
func checkWarmAllocs(t *testing.T, want float64, phase func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, phase); got != want {
		t.Errorf("warm phase allocates %.0f objects/run, want exactly %.0f", got, want)
	}
}

// forEachBarrier runs fn once per setting of barrierWorkers, as subtests
// named W<workers>.
func forEachBarrier(t *testing.T, fn func(t *testing.T, workers int)) {
	for _, w := range barrierWorkers {
		t.Run("W"+strconv.Itoa(w), func(t *testing.T) { fn(t, w) })
	}
}

// validConfig fails t unless the test machine's configuration passes
// the adapters' validation at the given Workers setting.
func validConfig(t *testing.T, p cost.Params, cells, workers int) {
	t.Helper()
	if err := engine.ValidateConfig("test", p, p.P, cells, workers, false); err != nil {
		t.Fatal(err)
	}
}

func newMemMachine(t *testing.T, p, cells, workers int) *memMachine {
	t.Helper()
	params := cost.Params{G: 1, P: p}
	validConfig(t, params, cells, workers)
	m := &memMachine{}
	m.InitMem(memModel{}, params, p, cells)
	return m
}

func TestMemPhaseLifecycle(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newMemMachine(t, 4, 8, workers)
		for i := range m.Data() {
			m.Data()[i] = int64(10 * i)
		}
		m.Phase(func(c *engine.MemCtx[int64]) {
			v := c.Read(c.Proc())
			c.Write(c.Proc()+4, v+1)
		})
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if got, want := m.Data()[i+4], int64(10*i+1); got != want {
				t.Errorf("cell %d = %d, want %d", i+4, got, want)
			}
		}
		m.Phase(func(c *engine.MemCtx[int64]) {
			c.Op(3)
			c.Write(0, int64(c.Proc()))
		})
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if got := m.Data()[0]; got != 3 {
			t.Errorf("winner: cell 0 = %d, want last write of highest processor (3)", got)
		}
		r := m.Report()
		if r.NumPhases() != 2 {
			t.Fatalf("NumPhases = %d, want 2", r.NumPhases())
		}
		// Phase 0: m_rw = max(1 read, 1 write) = 1, κ=1 → time 1.
		// Phase 1: m_op=3, m_rw=1, κ_w=4 → time 4.
		if got, want := r.Phases[0].Time, cost.Time(1); got != want {
			t.Errorf("phase 0 time = %d, want %d", got, want)
		}
		if got, want := r.Phases[1].Time, cost.Time(4); got != want {
			t.Errorf("phase 1 time = %d, want %d", got, want)
		}
		if got, want := r.TotalTime, cost.Time(5); got != want {
			t.Errorf("TotalTime = %d, want %d", got, want)
		}
	})
}

// ForAll dispatches only its prefix on both shared-memory engines: the
// body runs exactly once for each processor in [0, active) and never for
// a processor ≥ active, crash masking still applies inside the prefix,
// and active is clamped to [0, p].
func TestForAllDispatchesPrefix(t *testing.T) {
	const p, k, victim = 64, 10, 3
	crash := func() engine.Injector {
		return scripted(map[int]engine.Verdict{
			0: {Class: engine.FaultCrash, Err: errScripted, Proc: victim, Addr: -1},
		})
	}
	forEachBarrier(t, func(t *testing.T, workers int) {
		mem := newMemMachine(t, p, p, workers)
		bit := newBitMachine(t, p, p, workers)
		mem.InjectFaults(crash(), engine.RetryPolicy{}, true)
		bit.InjectFaults(crash(), engine.RetryPolicy{}, true)
		for _, e := range []struct {
			name   string
			m      engine.Machine
			forAll func(active int, calls []int)
		}{
			{"mem", mem, func(active int, calls []int) {
				mem.ForAll(active, func(c *engine.MemCtx[int64]) {
					calls[c.Proc()]++
					c.Write(c.Proc(), 1)
				})
			}},
			{"bit", bit, func(active int, calls []int) {
				bit.ForAll(active, func(c *engine.BitCtx) {
					calls[c.Proc()]++
					c.Write(c.Proc(), true)
				})
			}},
		} {
			calls := make([]int, p)
			e.forAll(k, calls) // the victim crashes at this phase's barrier
			e.forAll(k, calls) // and is masked from here on
			for i, n := range calls {
				want := 0
				switch {
				case i == victim:
					want = 1
				case i < k:
					want = 2
				}
				if n != want {
					t.Errorf("%s: processor %d ran %d times over two ForAll(%d) phases, want %d", e.name, i, n, k, want)
				}
			}
			clear(calls)
			e.forAll(p+5, calls)
			e.forAll(-1, calls)
			for i, n := range calls {
				want := 1
				if i == victim {
					want = 0
				}
				if n != want {
					t.Errorf("%s: processor %d ran %d times under ForAll(p+5) and ForAll(-1), want %d", e.name, i, n, want)
				}
			}
			if err := e.m.Err(); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if got := e.m.Report().NumPhases(); got != 4 {
				t.Errorf("%s: NumPhases = %d, want 4 (an empty prefix still charges its phase)", e.name, got)
			}
		}
	})
}

func TestMemFailurePoisoning(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newMemMachine(t, 3, 4, workers)
		m.Phase(func(c *engine.MemCtx[int64]) {
			c.Read(99) // out of range: every processor fails
		})
		err := m.Err()
		if err == nil {
			t.Fatal("expected a poisoned machine")
		}
		if want := "test: proc 0: read out of range: cell 99 of 4"; !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
		}
		if want := "(and 2 other processors failed)"; !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
		}
		if m.Report().NumPhases() != 0 {
			t.Errorf("failed phase was charged: NumPhases = %d", m.Report().NumPhases())
		}
		ran := false
		m.Phase(func(c *engine.MemCtx[int64]) { ran = true })
		if ran {
			t.Error("phase body ran on a poisoned machine")
		}
	})
}

func TestMemViolationAborts(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newMemMachine(t, 2, 4, workers)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		m.Data()[0] = 7
		m.Phase(func(c *engine.MemCtx[int64]) {
			if c.Proc() == 0 {
				c.Read(0)
			} else {
				c.Write(0, 1)
			}
		})
		err := m.Err()
		if !errors.Is(err, errTestViolation) {
			t.Fatalf("err = %v, want wrap of the model's violation sentinel", err)
		}
		if want := "cell 0 both read and written in phase 0"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
		}
		if m.Report().NumPhases() != 0 {
			t.Errorf("violating phase was charged: NumPhases = %d", m.Report().NumPhases())
		}
		if got, memTouched := m.Data()[0], int64(7); got != memTouched {
			t.Errorf("violating phase applied writes: cell 0 = %d, want %d", got, memTouched)
		}
		// The aborted phase starts but never commits: no requests, no end.
		want := []string{"phase 0 start"}
		if lines := ev.Lines(); len(lines) != 1 || lines[0] != want[0] {
			t.Errorf("event log = %q, want %q", lines, want)
		}
	})
}

func TestMemObserverOrdering(t *testing.T) {
	// More workers than needed: the event stream must still come out in
	// ascending processor order, reads before writes, read payloads
	// showing start-of-phase contents.
	m := newMemMachine(t, 3, 4, 8)
	ev1 := &engine.EventLog{}
	ev2 := &engine.EventLog{}
	m.AddObserver(ev1)
	m.AddObserver(ev2)
	copy(m.Data(), []int64{10, 20, 30, 0})
	m.Phase(func(c *engine.MemCtx[int64]) {
		c.Read((c.Proc() + 1) % 3)
		c.Write(3, int64(c.Proc()))
	})
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"phase 0 start",
		"phase 0 p0 read 1=20",
		"phase 0 p0 write 3=0",
		"phase 0 p1 read 2=30",
		"phase 0 p1 write 3=1",
		"phase 0 p2 read 0=10",
		"phase 0 p2 write 3=2",
		"phase 0 end: time=3 m_op=0 m_rw=1 κ=3 round=true",
	}
	lines1, lines2 := ev1.Lines(), ev2.Lines()
	if len(lines1) != len(want) {
		t.Fatalf("event log has %d lines, want %d:\n%s", len(lines1), len(want), ev1.String())
	}
	for i := range want {
		if lines1[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines1[i], want[i])
		}
	}
	for i := range want {
		if lines2[i] != want[i] {
			t.Fatalf("second observer diverged at line %d: %q", i, lines2[i])
		}
	}
	if got := m.Data()[3]; got != 2 {
		t.Errorf("cell 3 = %d, want 2", got)
	}
}

// TestMemSteadyStateAllocs pins the free-list behaviour of both
// barriers: after warm-up, an untraced phase reuses its contexts, request
// buffers and commit scratch, and allocates nothing (see
// warmPhaseAllocs). Reallocating any O(p) structure, or one object
// on the commit path, changes the count.
func TestMemSteadyStateAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p = 64
		m := newMemMachine(t, p, 2*p, workers)
		body := func(c *engine.MemCtx[int64]) {
			v := c.Read(c.Proc())
			c.Write(p+c.Proc(), v+1)
		}
		m.Phase(body)
		m.Phase(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		checkWarmAllocs(t, warmPhaseAllocs, func() { m.Phase(body) })
	})
}

// --- message-routing engine ------------------------------------------------

type routeMachine struct {
	engine.Route[int64]
}

type routeModel struct{}

func (routeModel) Name() string   { return "RTEST" }
func (routeModel) Entity() string { return "component" }

func (routeModel) Render(m int64) string { return strconv.FormatInt(m, 10) }

func (routeModel) PhaseCost(o engine.Outcome) cost.PhaseCost {
	return cost.PhaseCost{
		MaxOps:  o.MaxOps,
		MaxRW:   o.MaxRW,
		Time:    cost.Time(max(o.MaxOps, o.MaxRW, 1)),
		IsRound: true,
	}
}

func newRouteMachine(t *testing.T, p, workers int) *routeMachine {
	t.Helper()
	params := cost.Params{G: 1, P: p}
	validConfig(t, params, 0, workers)
	m := &routeMachine{}
	m.InitRoute(routeModel{}, params, p)
	return m
}

func TestRouteSuperstepLifecycle(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newRouteMachine(t, 3, workers)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		m.Superstep(func(i int, s *engine.Sends[int64]) {
			s.AddWork(2)
			s.Stage(int32((i+1)%3), int64(100+i))
		})
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			in := m.Incoming(i)
			wantMsg := int64(100 + (i+2)%3)
			if len(in) != 1 || in[0] != wantMsg {
				t.Errorf("Incoming(%d) = %v, want [%d]", i, in, wantMsg)
			}
		}
		want := []string{
			"phase 0 start",
			"phase 0 p0 send 1=100",
			"phase 0 p1 send 2=101",
			"phase 0 p2 send 0=102",
			"phase 0 end: time=2 m_op=2 m_rw=1 κ=0 round=true",
		}
		if got := ev.String(); got != strings.Join(want, "\n") {
			t.Errorf("event log:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
		}
		// Next superstep: old inboxes are visible, new deliveries replace them.
		m.Superstep(func(i int, s *engine.Sends[int64]) {})
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if in := m.Incoming(0); len(in) != 0 {
			t.Errorf("Incoming(0) after empty superstep = %v, want empty", in)
		}
	})
}

func TestRouteFailurePoisoning(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		m := newRouteMachine(t, 3, workers)
		boom := errors.New("rtest: bad destination")
		m.Superstep(func(i int, s *engine.Sends[int64]) {
			s.Fail(boom)
		})
		err := m.Err()
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want wrap of the component failure", err)
		}
		if want := "(and 2 other components failed)"; !strings.Contains(err.Error(), want) {
			t.Errorf("err = %q, want it to contain %q", err, want)
		}
		if m.Report().NumPhases() != 0 {
			t.Errorf("failed superstep was charged: NumPhases = %d", m.Report().NumPhases())
		}
	})
}

// TestRouteSteadyStateAllocs is the routing twin of the Mem pin: a
// warmed-up superstep reuses staging buffers, ping-ponged inboxes and
// commit scratch under both barriers.
func TestRouteSteadyStateAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p = 64
		m := newRouteMachine(t, p, workers)
		body := func(i int, s *engine.Sends[int64]) {
			s.AddWork(1)
			s.Stage(int32((i+1)%p), int64(i))
			s.Stage(int32(i/8), int64(i))
		}
		m.Superstep(body)
		m.Superstep(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		checkWarmAllocs(t, warmPhaseAllocs, func() { m.Superstep(body) })
	})
}

// --- shared config validation ----------------------------------------------

func TestMemGrowPastAddressSpace(t *testing.T) {
	m := newMemMachine(t, 4, 8, 1)
	m.Grow(math.MaxInt32 + 1)
	const want = "test: memory of 2147483648 cells exceeds the 2147483647-cell address space"
	if err := m.Err(); err == nil || err.Error() != want {
		t.Fatalf("Err after Grow = %v, want %q", err, want)
	}
	if m.MemSize() != 8 {
		t.Fatalf("MemSize after refused Grow = %d, want 8", m.MemSize())
	}
}

func TestValidateConfig(t *testing.T) {
	ok := cost.Params{G: 2, L: 4, P: 8}
	cases := []struct {
		name    string
		prefix  string
		p       cost.Params
		n       int
		cells   int
		workers int
		needL   bool
		wantErr string // "" means valid
	}{
		{"valid", "qsm", ok, 8, 16, 0, false, ""},
		{"valid with L", "bsp", ok, 8, 16, 4, true, ""},
		{"negative workers", "qsm", ok, 8, 16, -1, false, "qsm: negative Workers -1"},
		{"bad params", "qsm", cost.Params{G: 0, P: 8}, 8, 16, 0, false, "cost: gap parameter g must be ≥ 1, got 0"},
		{"L below g", "bsp", cost.Params{G: 4, L: 2, P: 8}, 8, 16, 0, true, "cost: BSP requires L ≥ g, got L=2 g=4"},
		{"missing L", "bsp", cost.Params{G: 2, P: 8}, 8, 16, 0, true, "bsp: latency L must be ≥ 1, got 0"},
		{"zero n", "gsm", ok, 0, 16, 0, false, "gsm: input size N must be ≥ 1, got 0"},
		{"negative cells", "gsm", ok, 8, -1, 0, false, "gsm: negative memory size -1"},
		{"cells past int32", "qsm", ok, 8, math.MaxInt32 + 1, 0, false, "qsm: memory of 2147483648 cells exceeds the 2147483647-cell address space"},
		{"cells at int32", "qsm", ok, 8, math.MaxInt32, 0, false, ""},
		{"P past int32", "bsp", cost.Params{G: 2, L: 4, P: math.MaxInt32 + 1}, 8, 16, 0, true, "bsp: 2147483648 processors exceed the 2147483647-processor limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := engine.ValidateConfig(tc.prefix, tc.p, tc.n, tc.cells, tc.workers, tc.needL)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ValidateConfig = %v, want nil", err)
				}
				return
			}
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("ValidateConfig = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestMemObservedSteadyStateAllocs is the observed twin of the Mem pin:
// with an EventLog attached and Reset between runs, a warmed-up phase
// holds the same bound. The cell values are ≥ 1000, past strconv's
// interned small integers, so a Render per cell at commit would show as
// an allocation per cell.
func TestMemObservedSteadyStateAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p = 64
		m := newMemMachine(t, p, 4*p, workers)
		for i := range m.Data() {
			m.Data()[i] = int64(1000 + i)
		}
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		body := func(c *engine.MemCtx[int64]) {
			i := c.Proc()
			c.Write(3*p+i, c.Read(i)+1000)
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

// TestRouteObservedSteadyStateAllocs is the routing twin, with BSP
// messages, whose rendering allocates: a warmed-up observed superstep
// records them without rendering any.
func TestRouteObservedSteadyStateAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p = 64
		m := bsp.MustNew(bsp.Config{P: p, G: 1, L: 1, N: p, PrivCells: 1, Workers: workers})
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		body := func(c *bsp.Ctx) {
			i := c.Comp()
			c.Send((i+1)%p, 1000, int64(1000+i))
			c.Send(i/8, 2000, int64(2000+i))
		}
		m.Superstep(body)
		m.Superstep(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		checkWarmAllocs(t, warmPhaseAllocs, func() {
			ev.Reset()
			m.Superstep(body)
		})
	})
}

// countObserver is an observer that is not an EventLog, so the barrier
// feeds it through the core's relay log.
type countObserver struct{ requests, ends int }

func (o *countObserver) PhaseStart(int)               {}
func (o *countObserver) Request(int, engine.Request)  { o.requests++ }
func (o *countObserver) PhaseEnd(int, cost.PhaseCost) { o.ends++ }

// TestRelayObserverSteadyStateAllocs pins Core.observeRecord's relay
// path: a warm phase observed by a plain Observer records into the
// reused relay log and replays it as Request calls without allocating.
// The cell values stay below 100, which strconv renders without
// allocating, so only the engine's own objects count.
func TestRelayObserverSteadyStateAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p = 64
		m := newMemMachine(t, p, 2*p, workers)
		obs := &countObserver{}
		m.AddObserver(obs)
		body := func(c *engine.MemCtx[int64]) {
			c.Write(p+c.Proc(), c.Read(c.Proc())%50+1)
		}
		m.Phase(body)
		m.Phase(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if obs.requests != 4*p || obs.ends != 2 {
			t.Fatalf("relay delivered %d requests and %d phase ends over two phases, want %d and 2", obs.requests, obs.ends, 4*p)
		}
		checkWarmAllocs(t, warmPhaseAllocs, func() { m.Phase(body) })
	})
}

// TestEventLogResetReusesStorage: Reset keeps and truncates every page
// of a log, its value stores included, so a recycled log records a wide
// phase (64Ki read values here) into the storage it already has instead
// of allocating storage in proportion to the phase.
func TestEventLogResetReusesStorage(t *testing.T) {
	const p, k = 64, 1024
	m := newMemMachine(t, p, p*k+p, 1)
	ev := &engine.EventLog{}
	m.AddObserver(ev)
	body := func(c *engine.MemCtx[int64]) {
		c.ReadBlock(c.Proc()*k, k)
		c.Write(p*k+c.Proc(), 1)
	}
	for range 3 {
		ev.Reset()
		m.Phase(body)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		ev.Reset()
		m.Phase(body)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Errorf("a recycled log allocates %d bytes per observed phase of %d reads, want ≤ 16 KiB", per, p*k)
	}
}
