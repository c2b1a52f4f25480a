package repro

// Backend determinism suite: the commit-barrier backend is a pure
// transport choice. The same algorithm on the same machine must produce
// byte-identical event streams, cost reports and final memory whether
// the barrier merge runs in-process or across N worker subprocesses —
// at every worker-process count.

import (
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/proc"
	"repro/internal/boolor"
	"repro/internal/bsp"
	"repro/internal/compaction"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/parity"
	"repro/internal/qsm"
	"repro/internal/workload"
)

// The proc backend re-execs this test binary as its worker processes;
// MaybeWorker hijacks those re-execs before the test runner starts.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	os.Exit(m.Run())
}

// newProcBackend builds a proc coordinator with w worker subprocesses,
// closed when the test finishes.
func newProcBackend(t *testing.T, w int) engine.Backend {
	t.Helper()
	bk, err := backend.New(backend.Config{
		Name: "proc", ProcWorkers: w,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bk.Close() })
	return bk
}

// backendRun snapshots everything observable about one run.
type backendRun struct {
	result int64
	stream []string
	mem    []int64
	report cost.Report
}

// procWorkerCounts are the worker-process fan-outs compared against the
// in-process baseline; 3 splits the power-of-two spaces unevenly, so rank
// boundaries fall inside request runs.
var procWorkerCounts = []int{1, 3, 4}

// TestBackendDeterminism runs one algorithm per family — parity tree,
// Boolean OR contention tree, dart-throwing compaction (all QSM), and
// the BSP parity tree for the routing barrier — on the in-process
// backend and on proc backends at 1, 3 and 4 worker processes, and demands
// byte-identical observables.
func TestBackendDeterminism(t *testing.T) {
	const n = 256
	cases := []struct {
		name string
		run  func(t *testing.T, bk engine.Backend) backendRun
	}{
		{"QSM/parity-tree", func(t *testing.T, bk engine.Backend) backendRun {
			in := workload.Bits(5, n)
			m, err := qsm.New(qsm.Config{
				Rule: cost.RuleQSM, P: n, G: 2, N: n, MemCells: 2 * n, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			ev := Observe(m)
			if bk != nil {
				m.SetBackend(bk)
			}
			if err := m.Load(0, in); err != nil {
				t.Fatal(err)
			}
			addr, err := parity.TreeQSM(m, 0, n, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			return backendRun{
				result: m.Peek(addr), stream: ev.Lines(),
				mem: m.PeekRange(0, m.MemSize()), report: *m.Report(),
			}
		}},
		{"QSM/boolor-contention", func(t *testing.T, bk engine.Backend) backendRun {
			in := workload.Bits(6, n)
			m, err := qsm.New(qsm.Config{
				Rule: cost.RuleCRQW, P: n, G: 2, N: n, MemCells: 2 * n, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			ev := Observe(m)
			if bk != nil {
				m.SetBackend(bk)
			}
			if err := m.Load(0, in); err != nil {
				t.Fatal(err)
			}
			addr, err := boolor.ContentionTree(m, 0, n, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			return backendRun{
				result: m.Peek(addr), stream: ev.Lines(),
				mem: m.PeekRange(0, m.MemSize()), report: *m.Report(),
			}
		}},
		{"QSM/dart-compaction", func(t *testing.T, bk engine.Backend) backendRun {
			in, err := workload.Sparse(7, n, n/8)
			if err != nil {
				t.Fatal(err)
			}
			m, err := qsm.New(qsm.Config{
				Rule: cost.RuleQSM, P: n, G: 1, N: n, MemCells: n, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			ev := Observe(m)
			if bk != nil {
				m.SetBackend(bk)
			}
			if err := m.Load(0, in); err != nil {
				t.Fatal(err)
			}
			res, err := compaction.DartLAC(m, rand.New(rand.NewSource(42)), 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			return backendRun{
				result: int64(res.Rounds), stream: ev.Lines(),
				mem: m.PeekRange(0, m.MemSize()), report: *m.Report(),
			}
		}},
		{"BSP/parity-tree", func(t *testing.T, bk engine.Backend) backendRun {
			const p = 16
			in := workload.Bits(5, n)
			m, err := bsp.New(bsp.Config{
				P: p, G: 2, L: 8, N: n,
				PrivCells: parity.PrivNeedBSP(n, p), Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			ev := Observe(m)
			if bk != nil {
				m.SetBackend(bk)
			}
			if err := m.Scatter(in); err != nil {
				t.Fatal(err)
			}
			got, err := parity.RunBSP(m, n, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			return backendRun{result: got, stream: ev.Lines(), report: *m.Report()}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.run(t, nil)
			if len(base.stream) == 0 {
				t.Fatal("empty baseline event stream")
			}
			for _, w := range procWorkerCounts {
				got := tc.run(t, newProcBackend(t, w))
				if got.result != base.result {
					t.Errorf("proc×%d: result %d, inproc %d", w, got.result, base.result)
				}
				if !reflect.DeepEqual(got.stream, base.stream) {
					for i := range base.stream {
						if i >= len(got.stream) || got.stream[i] != base.stream[i] {
							t.Fatalf("proc×%d: event streams diverge at line %d:\ninproc: %q\nproc:   %q",
								w, i, base.stream[i], got.stream[min(i, len(got.stream)-1)])
						}
					}
					t.Fatalf("proc×%d: stream lengths differ: inproc %d, proc %d",
						w, len(base.stream), len(got.stream))
				}
				if !reflect.DeepEqual(got.mem, base.mem) {
					t.Errorf("proc×%d: final memory differs from inproc", w)
				}
				if !reflect.DeepEqual(got.report, base.report) {
					t.Errorf("proc×%d: cost reports differ:\ninproc: %+v\nproc:   %+v",
						w, base.report, got.report)
				}
			}
		})
	}
}
