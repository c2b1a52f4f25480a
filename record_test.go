package repro

import (
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/gsm"
	"repro/internal/qsm"
)

// cellOnly exposes only the Observer methods of the log it wraps, so the
// engine does not see an EventLog and feeds it the expander's per-cell
// Request calls instead of a phase record.
type cellOnly struct{ engine.Observer }

// recordEngine runs one small program on one engine: phases of plain,
// block and fill requests (packed-bit words on BitMem, single and batched
// sends on BSP). attach is called on the fresh machine before its first
// phase; with fail set, processor 1 fails in the last phase. It returns
// the machine's error.
type recordEngine struct {
	name string
	// transient is the engine's transient fault kind. BSP uses MsgDup:
	// the proc backend's echo of a duplicate is harmless, while a dropped
	// frame legitimately burns a transport retry, which would make the
	// proc streams differ from the in-process ones.
	transient fault.Kind
	run       func(t *testing.T, workers int, attach func(engine.Machine), fail bool) error
}

const recordP = 8

var recordEngines = []recordEngine{
	{"qsm", fault.MemTransient, func(t *testing.T, workers int, attach func(engine.Machine), fail bool) error {
		const p = recordP
		m, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 10 * p, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		attach(m)
		in := make([]int64, 10*p)
		for i := range in {
			in[i] = int64(1000 + 7*i)
		}
		if err := m.Load(0, in); err != nil {
			t.Fatal(err)
		}
		m.Phase(func(c *qsm.Ctx) {
			i := c.Proc()
			c.Write(p+i, c.Read(i)+1)
		})
		m.Phase(func(c *qsm.Ctx) {
			i := c.Proc()
			v := c.ReadBlock(2*p+2*i, 2)
			c.WriteBlock(4*p+2*i, []int64{v[0] + 1, v[1] + 2})
			c.WriteFill(6*p+2*i, 2, int64(2000+i))
			c.Write(8*p+i%2, int64(3000+i))
		})
		m.Phase(func(c *qsm.Ctx) {
			if fail && c.Proc() == 1 {
				c.Read(-1)
			}
			if c.Proc()%3 == 0 {
				c.ReadBlock(0, 2*p)
				c.WriteFill(9*p, p, int64(4000+c.Proc()))
			}
		})
		return m.Err()
	}},
	{"gsm", fault.MemTransient, func(t *testing.T, workers int, attach func(engine.Machine), fail bool) error {
		const p = recordP
		m, err := gsm.New(gsm.Config{P: p, Alpha: 1, Beta: 1, Gamma: 1, N: 2 * p, Cells: 8 * p, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		attach(m)
		in := make([]int64, 2*p)
		for i := range in {
			in[i] = int64(i % 3)
		}
		if err := m.LoadInputs(in); err != nil {
			t.Fatal(err)
		}
		m.Phase(func(c *gsm.Ctx) {
			i := c.Proc()
			c.Write(2*p+i/2, c.Read(i).Merge(c.Read(p+i)))
		})
		m.Phase(func(c *gsm.Ctx) {
			i := c.Proc()
			v := c.ReadBlock(2*p, p/2)
			c.WriteBlock(4*p+2*i, []gsm.Info{v[0], gsm.NewInfo(int64(i), 1000)})
			c.WriteFill(6*p, p, gsm.NewInfo(int64(i)))
		})
		m.Phase(func(c *gsm.Ctx) {
			if fail && c.Proc() == 1 {
				c.Write(8*p, nil)
			}
			c.WriteFill(2*p, 2, c.ReadBlock(6*p, 2)[1])
		})
		return m.Err()
	}},
	{"bit", fault.MemTransient, func(t *testing.T, workers int, attach func(engine.Machine), fail bool) error {
		const p = recordP
		m, err := qsm.NewBool(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 64 * p, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		attach(m)
		in := make([]int64, 64*p)
		for i := range in {
			in[i] = int64(i % 3 % 2)
		}
		if err := m.Load(0, in); err != nil {
			t.Fatal(err)
		}
		m.Phase(func(c *qsm.BoolCtx) {
			i := c.Proc()
			c.Write(p+i, !c.Read(i))
		})
		m.Phase(func(c *qsm.BoolCtx) {
			i := c.Proc()
			w := c.ReadWord(2*p+5*i, 5)
			c.Write(64*i+63, w&1 == 1)
			c.Write(64*i+62, w&2 == 2)
		})
		m.Phase(func(c *qsm.BoolCtx) {
			if fail && c.Proc() == 1 {
				c.ReadWord(64*p-1, 2)
			}
			c.ReadWord(100, 64)
			c.Write(40+c.Proc()/2, c.Proc()%2 == 0)
		})
		return m.Err()
	}},
	{"bsp", fault.MsgDup, func(t *testing.T, workers int, attach func(engine.Machine), fail bool) error {
		const p = recordP
		m, err := bsp.New(bsp.Config{P: p, G: 1, L: 1, N: p, PrivCells: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		attach(m)
		m.Superstep(func(c *bsp.Ctx) {
			i := c.Comp()
			c.Send((i+1)%p, 1, int64(1000+i))
		})
		m.Superstep(func(c *bsp.Ctx) {
			i := c.Comp()
			var got int64
			for _, msg := range c.Incoming() {
				got += msg.Val
			}
			c.SendBatch([]int32{int32(i / 2), int32(p - 1 - i)}, []int64{1, 2}, []int64{got, got + 1})
		})
		m.Superstep(func(c *bsp.Ctx) {
			if fail && c.Comp() == 1 {
				c.Send(p, 0, 0)
			}
			c.SendFanout([]int32{0, 1, 2}, 3, int64(len(c.Incoming())))
		})
		return m.Err()
	}},
}

// recordCases are the runs each engine is checked on: a clean run, a
// processor failing, a processor crashed and masked (degraded mode), a
// transient fault retried, and two machines feeding one log in turn.
var recordCases = []struct {
	name     string
	machines int
	fail     bool
	plan     func(e recordEngine) *fault.Plan
}{
	{"clean", 1, false, nil},
	{"failing", 1, true, nil},
	{"masked", 1, false, func(recordEngine) *fault.Plan {
		return fault.NewPlan(7, fault.Spec{Kind: fault.Crash, Phase: 1, Proc: 2})
	}},
	{"transient", 1, false, func(e recordEngine) *fault.Plan {
		return fault.NewPlan(7, fault.Spec{Kind: e.transient, Phase: 1})
	}},
	{"two-machines", 2, false, nil},
}

// TestPhaseRecordMatchesPerCellStream holds the phase record to the
// per-cell stream it replaced: on every engine, configuration and case,
// an EventLog fed the phase records renders byte for byte what a second
// log fed the expander's per-cell Request calls renders. The record
// stream must also be the same in every configuration.
func TestPhaseRecordMatchesPerCellStream(t *testing.T) {
	configs := []struct {
		name           string
		workers, procs int
	}{{"W1", 1, 0}, {"W4", 4, 0}, {"W1-proc2", 1, 2}, {"W4-proc2", 4, 2}}
	for _, e := range recordEngines {
		for _, cs := range recordCases {
			t.Run(e.name+"/"+cs.name, func(t *testing.T) {
				var want string
				for _, cfg := range configs {
					rec, cell := &engine.EventLog{}, &engine.EventLog{}
					// A crash fault kills a proc worker, so every run
					// gets a fresh backend and its full respawn budget.
					var bk engine.Backend
					if cfg.procs > 0 {
						bk = newProcBackend(t, cfg.procs)
					}
					attach := func(m engine.Machine) {
						m.AddObserver(rec)
						m.AddObserver(cellOnly{cell})
						m.SetBackend(bk)
						if cs.plan != nil {
							m.InjectFaults(cs.plan(e), engine.RetryPolicy{}, true)
						}
					}
					for range cs.machines {
						if err := e.run(t, cfg.workers, attach, cs.fail); (err != nil) != cs.fail {
							t.Fatalf("%s: run error %v, want one: %t", cfg.name, err, cs.fail)
						}
					}
					got := rec.String()
					if per := cell.String(); got != per {
						t.Fatalf("%s: record stream differs from the per-cell stream:\nrecord:\n%s\nper-cell:\n%s", cfg.name, got, per)
					}
					if rec.Len() != cell.Len() || len(rec.Lines()) != rec.Len() {
						t.Fatalf("%s: Len %d, per-cell Len %d, %d lines", cfg.name, rec.Len(), cell.Len(), len(rec.Lines()))
					}
					if !strings.Contains(got, "=") {
						t.Fatalf("%s: no request recorded:\n%s", cfg.name, got)
					}
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("%s: stream differs from %s:\n%s\nwant:\n%s", cfg.name, configs[0].name, got, want)
					}
				}
			})
		}
	}
}
