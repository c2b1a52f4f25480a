package engine

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/cost"
)

// lwwModel is the smallest last-writer-wins model, enough to drive the
// Mem, BitMem and Route engines from inside the package.
type lwwModel struct{}

func (lwwModel) Name() string     { return "ITEST" }
func (lwwModel) Entity() string   { return "processor" }
func (lwwModel) Prefix() string   { return "itest" }
func (lwwModel) Violation() error { return errors.New("itest: violation") }
func (lwwModel) Grain() int       { return 1 }
func (lwwModel) Scrub([]int64)    {}

func (lwwModel) Apply(mem []int64, addrs []int32, vals []int64) {
	for j, a := range addrs {
		mem[a] = vals[j]
	}
}

func (lwwModel) Render(v int64) string { return strconv.FormatInt(v, 10) }

func (lwwModel) PhaseCost(o Outcome) cost.PhaseCost {
	return cost.PhaseCost{MaxOps: o.MaxOps, MaxRW: o.MaxRW,
		Time: cost.Time(max(o.MaxOps, o.MaxRW, o.KRead, o.KWrite, 1))}
}

// TestSerialBarrierSkipsBuckets pins where the serial barrier's memory
// win comes from: at one worker no engine ever allocates the sharded
// commit's pass-1 buckets, while at four workers every engine does.
func TestSerialBarrierSkipsBuckets(t *testing.T) {
	const p = 32
	for _, workers := range []int{1, 4} {
		var m Mem[int64]
		m.InitMem(lwwModel{}, cost.Params{G: 1, P: p}, p, workers, 2*p)
		var bm BitMem
		if err := bm.InitBits(lwwModel{}, cost.Params{G: 1, P: p}, p, workers, 2*p); err != nil {
			t.Fatal(err)
		}
		var r Route[int64]
		r.InitRoute(lwwModel{}, cost.Params{G: 1, P: p}, p, workers)
		for phase := 0; phase < 3; phase++ {
			m.Phase(func(c *MemCtx[int64]) {
				c.Read(c.Proc())
				c.Write(p+c.Proc()/2, int64(phase))
			})
			bm.Phase(func(c *BitCtx) {
				c.Read(c.Proc())
				c.Write(p+c.Proc()/2, phase%2 == 1)
			})
			r.Superstep(func(i int, s *Sends[int64]) {
				s.Stage(int32(i/4), int64(phase))
			})
		}
		for _, err := range []error{m.Err(), bm.Err(), r.Err()} {
			if err != nil {
				t.Fatal(err)
			}
		}
		buckets := []int{len(m.cb.rAddr), len(bm.cb.rAddr), len(r.rb.msg)}
		for i, n := range buckets {
			if workers == 1 && n != 0 {
				t.Errorf("W1 engine %d allocated %d pass-1 buckets, want none", i, n)
			}
			if workers > 1 && n == 0 {
				t.Errorf("W%d engine %d allocated no pass-1 buckets: the sharded path did not run", workers, i)
			}
		}
	}
}
