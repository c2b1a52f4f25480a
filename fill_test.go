package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gsm"
	"repro/internal/qsm"
)

// Fill-case op kinds.
const (
	fillFill  = iota // WriteFill(addr, k, val), or k Writes of val
	fillBlock        // WriteBlock of val, val+1, … over [addr, addr+k)
	fillWrite        // Write(addr, val)
	fillFail         // an out-of-range Read, which fails the processor
)

type fillOp struct {
	kind, addr, k int
	val           int64
}

// fillCase is a phase program over fillP processors and fillCells cells:
// phase ph runs ops(ph, pr) on every processor pr. fails says that a
// processor fails in the last phase.
type fillCase struct {
	name   string
	phases int
	ops    func(ph, pr int) []fillOp
	fails  bool
}

// fillP spans four dispatch chunks at Workers 4, also for gsm's grain of
// 64, and fillActors puts processors in each chunk, several in the first,
// so one lane holds many processors' fills. A two-rank proc backend
// splits the fillCells cells at 2100.
const (
	fillP     = 256
	fillCells = 4200
)

var fillActors = []int{0, 1, 2, 70, 140, 200, 255}

// actor returns pr's index in fillActors, or −1 for an idle processor.
func actor(pr int) int {
	for i, a := range fillActors {
		if a == pr {
			return i
		}
	}
	return -1
}

// actorOps gives every actor the ops f returns for its index and the
// phase's value base, and the other processors none.
func actorOps(f func(i int, v int64) []fillOp) func(ph, pr int) []fillOp {
	return func(ph, pr int) []fillOp {
		if i := actor(pr); i >= 0 {
			return f(i, int64(1000*(ph+1)+10*i))
		}
		return nil
	}
}

var fillCases = []fillCase{
	{"k=0", 1, actorOps(func(i int, v int64) []fillOp {
		return []fillOp{{fillFill, 10 * i, 0, v}, {fillWrite, 4100 + i, 0, v + 1}}
	}), false},
	{"k=1", 2, actorOps(func(i int, v int64) []fillOp {
		return []fillOp{{fillFill, 10 * i, 1, v}}
	}), false},
	{"k=2", 2, actorOps(func(i int, v int64) []fillOp {
		return []fillOp{{fillFill, 10 * i, 2, v}}
	}), false},
	// Four 1000-cell fills tile [50, 4050); the third crosses the proc
	// split at 2100.
	{"k=1000", 1, func(ph, pr int) []fillOp {
		for i, a := range []int{0, 70, 140, 255} {
			if a == pr {
				return []fillOp{{fillFill, 50 + 1000*i, 1000, int64(100 + i)}}
			}
		}
		return nil
	}, false},
	// A fill, a block and a write, then another fill, from each actor:
	// every value after the first fill pairs with the right cell only if
	// the fill took one value.
	{"fill-block-write", 2, actorOps(func(i int, v int64) []fillOp {
		a := 20*i + 40*(i%2)
		return []fillOp{{fillFill, a, 5, v}, {fillBlock, a + 5, 3, v + 1}, {fillWrite, a + 8, 0, v + 5}, {fillFill, a + 9, 4, v + 6}}
	}), false},
	// Neighbouring actors' fills overlap, and each actor overwrites part of
	// its own fill: the highest-numbered processor's last write wins.
	{"overlap", 2, actorOps(func(i int, v int64) []fillOp {
		a := 100 + 7*i
		return []fillOp{{fillFill, a, 20, v}, {fillFill, a + 3, 6, v + 1}}
	}), false},
	// After a committed phase, processor 1 fails after its fill: the
	// failing body's staged fill is dropped and the phase aborts.
	{"fail-after-fill", 2, func(ph, pr int) []fillOp {
		i := actor(pr)
		if i < 0 {
			return nil
		}
		ops := []fillOp{{fillFill, 30 * i, 12, int64(1000*(ph+1) + i)}}
		if ph == 1 && pr == 1 {
			ops = append(ops, fillOp{fillFail, 0, 0, 0})
		}
		return ops
	}, true},
	// Fills ending at, starting at and straddling the proc split at 2100.
	{"rank-boundary", 1, actorOps(func(i int, v int64) []fillOp {
		return []fillOp{{fillFill, 2090 + 3*i, 10 + i, v}, {fillFill, 2100 - (i + 2), i + 2, v + 1}, {fillFill, 2100, i + 1, v + 2}}
	}), false},
}

// fillMachine is what the test drives of a qsm or gsm machine.
type fillMachine[V any] interface {
	engine.Machine
	Phase(func(*engine.MemCtx[V]))
	Data() []V
	SetBackend(engine.Backend)
}

// fillRun snapshots everything observable about one run.
type fillRun struct{ events, report, image, err string }

// runFillCase runs c on m, with WriteFill when fill is set and with the
// equivalent per-cell Writes otherwise; val maps a value to the model's.
func runFillCase[V any](m fillMachine[V], c fillCase, fill bool, val func(int64) V) fillRun {
	ev := &engine.EventLog{}
	m.AddObserver(ev)
	for ph := 0; ph < c.phases; ph++ {
		m.Phase(func(ctx *engine.MemCtx[V]) {
			for _, op := range c.ops(ph, ctx.Proc()) {
				switch op.kind {
				case fillFill:
					if fill {
						ctx.WriteFill(op.addr, op.k, val(op.val))
						continue
					}
					for j := 0; j < op.k; j++ {
						ctx.Write(op.addr+j, val(op.val))
					}
				case fillBlock:
					vals := make([]V, op.k)
					for j := range vals {
						vals[j] = val(op.val + int64(j))
					}
					ctx.WriteBlock(op.addr, vals)
				case fillWrite:
					ctx.Write(op.addr, val(op.val))
				case fillFail:
					ctx.Read(-1)
				}
			}
		})
	}
	errText := "<nil>"
	if err := m.Err(); err != nil {
		errText = err.Error()
	}
	return fillRun{
		events: strings.Join(ev.Lines(), "\n"),
		report: fmt.Sprintf("%+v", *m.Report()),
		image:  fmt.Sprint(m.Data()),
		err:    errText,
	}
}

// checkFills runs every case in every configuration on machines from
// newM and compares each run with the in-process Workers=1 per-cell run.
func checkFills[V any](t *testing.T, newM func(t *testing.T, workers int) fillMachine[V], val func(int64) V) {
	for _, c := range fillCases {
		t.Run(c.name, func(t *testing.T) {
			var want fillRun
			for _, workers := range []int{1, 4} {
				for _, procs := range []int{0, 2} {
					for _, fill := range []bool{false, true} {
						m := newM(t, workers)
						var bk engine.Backend
						if procs > 0 {
							bk = newProcBackend(t, procs)
							m.SetBackend(bk)
						}
						got := runFillCase(m, c, fill, val)
						if bk != nil {
							bk.Close()
						}
						name := fmt.Sprintf("Workers=%d proc×%d fill=%t", workers, procs, fill)
						if want == (fillRun{}) {
							want = got
							if failed := got.err != "<nil>"; failed != c.fails || !strings.Contains(got.events, " write ") {
								t.Fatalf("%s: error %s, write events %t", name, got.err, strings.Contains(got.events, " write "))
							}
							continue
						}
						for _, d := range []struct{ what, want, got string }{
							{"event stream", want.events, got.events},
							{"cost report", want.report, got.report},
							{"memory image", want.image, got.image},
							{"error", want.err, got.err},
						} {
							if d.want != d.got {
								t.Errorf("%s: %s differs from the per-cell Workers=1 in-process run:\nwant %.600s\ngot  %.600s",
									name, d.what, d.want, d.got)
							}
						}
					}
				}
			}
		})
	}
}

// TestFillMatchesPerCellWrites holds a fill to the per-cell writes it
// stands for: a fill run stages one value for its k cells where a block
// stages k, and must still commit, charge and emit exactly the k Writes
// of its value. Each case runs once with WriteFill and once with the
// equivalent Write loop, on qsm and gsm, at Workers 1 and 4, in process
// and on a two-worker proc backend, and every run must give the same
// event stream, cost report, memory image and error.
func TestFillMatchesPerCellWrites(t *testing.T) {
	t.Run("qsm", func(t *testing.T) {
		checkFills(t, func(t *testing.T, workers int) fillMachine[int64] {
			m, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: fillP, G: 2, N: fillP, MemCells: fillCells, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Data() {
				m.Data()[i] = int64(i)
			}
			return m
		}, func(v int64) int64 { return v })
	})
	t.Run("gsm", func(t *testing.T) {
		checkFills(t, func(t *testing.T, workers int) fillMachine[gsm.Info] {
			m, err := gsm.New(gsm.Config{P: fillP, Alpha: 2, Beta: 2, Gamma: 1, N: fillP, Cells: fillCells, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Data() {
				m.Data()[i] = gsm.NewInfo(int64(i))
			}
			return m
		}, func(v int64) gsm.Info { return gsm.NewInfo(v) })
	})
}
