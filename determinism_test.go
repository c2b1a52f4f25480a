package repro

// Determinism regression suite for the parallel phase-commit pipeline: a
// simulation's observable state — shared/private memory, cost report, and
// execution trace — must be byte-identical whether the simulator runs on
// one worker or many. The winner rule (last write of the highest-numbered
// processor), contention counts, and violation selection are all defined
// independently of the chunk layout, so Workers is a pure throughput knob.
// Both settings commit through the same column barrier; Workers=8 runs
// the processor bodies over concurrent chunks, so every comparison here
// checks that concurrent dispatch leaves no trace in the results. (The
// GSM's grain keeps machines of at most 64 processors on inline dispatch
// at both settings.)

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bsp"
	"repro/internal/compaction"
	"repro/internal/cost"
	"repro/internal/gsm"
	"repro/internal/gsmalg"
	"repro/internal/parity"
	"repro/internal/qsm"
	"repro/internal/sortrank"
	"repro/internal/workload"
)

// detWorkers is the parallel setting compared against Workers=1. It
// exceeds GOMAXPROCS on small CI machines on purpose: chunk layout depends
// only on the Workers value, so the comparison is meaningful even when the
// runtime multiplexes the goroutines onto one core.
const detWorkers = 8

type qsmRun struct {
	result int
	mem    []int64
	report cost.Report
	proc   []string
	cell   []string
}

func qsmNew(workers, p, memCells int) (*qsm.Machine, error) {
	return qsm.New(qsm.Config{
		Rule: cost.RuleQSM, P: p, G: 1, N: p, MemCells: memCells, Workers: workers,
	})
}

// runParityTree runs the fan-in tree parity algorithm on a fresh QSM
// machine with the given worker count and snapshots everything observable.
func runParityTree(t *testing.T, workers int) qsmRun {
	t.Helper()
	const n, fanin = 1 << 10, 4
	in := workload.Bits(1998, n)
	m, err := qsmNew(workers, n, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTracing()
	if err := m.Load(0, in); err != nil {
		t.Fatal(err)
	}
	out, err := parity.TreeQSM(m, 0, n, fanin)
	if err != nil {
		t.Fatal(err)
	}
	r := qsmRun{
		result: out,
		mem:    m.PeekRange(0, m.MemSize()),
		report: *m.Report(),
	}
	tr := m.TraceLog()
	for p := 0; p < n; p++ {
		for ph := 0; ph <= tr.NumPhases(); ph++ {
			r.proc = append(r.proc, tr.ProcKey(p, ph))
		}
	}
	for c := 0; c < m.MemSize(); c++ {
		for ph := 0; ph <= tr.NumPhases(); ph++ {
			r.cell = append(r.cell, tr.CellKey(c, ph))
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDeterminismParityTreeQSM(t *testing.T) {
	seq := runParityTree(t, 1)
	par := runParityTree(t, detWorkers)
	if seq.result != par.result {
		t.Errorf("result: Workers=1 got %d, Workers=%d got %d", seq.result, detWorkers, par.result)
	}
	if !reflect.DeepEqual(seq.mem, par.mem) {
		t.Error("final shared memory differs between Workers=1 and Workers=N")
	}
	if !reflect.DeepEqual(seq.report, par.report) {
		t.Errorf("cost reports differ:\nWorkers=1: %+v\nWorkers=%d: %+v", seq.report, detWorkers, par.report)
	}
	if !reflect.DeepEqual(seq.proc, par.proc) {
		t.Error("processor trace keys differ between Workers=1 and Workers=N")
	}
	if !reflect.DeepEqual(seq.cell, par.cell) {
		t.Error("cell trace keys differ between Workers=1 and Workers=N")
	}
}

// runDartLAC runs randomized dart-throwing linear approximate compaction.
// Both runs share a seed, so the host-side coin flips are identical and
// any divergence must come from the commit pipeline.
func runDartLAC(t *testing.T, workers int) (res compaction.DartResult, mem []int64, rep cost.Report) {
	t.Helper()
	const n, h = 1 << 9, 40
	in, err := workload.Sparse(7, n, h)
	if err != nil {
		t.Fatal(err)
	}
	m, err := qsmNew(workers, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(0, in); err != nil {
		t.Fatal(err)
	}
	r, err := compaction.DartLAC(m, rand.New(rand.NewSource(42)), 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	return *r, m.PeekRange(0, m.MemSize()), *m.Report()
}

func TestDeterminismDartLACQSM(t *testing.T) {
	seqRes, seqMem, seqRep := runDartLAC(t, 1)
	parRes, parMem, parRep := runDartLAC(t, detWorkers)
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Errorf("dart LAC results differ:\nWorkers=1: %+v\nWorkers=%d: %+v", seqRes, detWorkers, parRes)
	}
	if !reflect.DeepEqual(seqMem, parMem) {
		t.Error("final shared memory differs between Workers=1 and Workers=N")
	}
	if !reflect.DeepEqual(seqRep, parRep) {
		t.Error("cost reports differ between Workers=1 and Workers=N")
	}
}

// runSampleSortBSP routes every key through the message pipeline twice
// (samples to the coordinator, keys to their buckets), which exercises the
// routing commit and inbox recycling end to end.
func runSampleSortBSP(t *testing.T, workers int) (mem [][]int64, rep cost.Report) {
	t.Helper()
	const n, p = 1 << 10, 32
	keys := make([]int64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = rng.Int63n(1 << 20)
	}
	priv := sortrank.PrivNeedSampleSortBSP(n, p)
	m, err := bsp.New(bsp.Config{P: p, G: 1, L: 4, N: n, PrivCells: priv, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Scatter(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := sortrank.SampleSortBSP(m, n); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	mem = make([][]int64, p)
	for c := 0; c < p; c++ {
		mem[c] = make([]int64, priv)
		for a := 0; a < priv; a++ {
			mem[c][a] = m.Peek(c, a)
		}
	}
	return mem, *m.Report()
}

func TestDeterminismSampleSortBSP(t *testing.T) {
	seqMem, seqRep := runSampleSortBSP(t, 1)
	parMem, parRep := runSampleSortBSP(t, detWorkers)
	if !reflect.DeepEqual(seqMem, parMem) {
		t.Error("final private memories differ between Workers=1 and Workers=N")
	}
	if !reflect.DeepEqual(seqRep, parRep) {
		t.Errorf("cost reports differ:\nWorkers=1: %+v\nWorkers=%d: %+v", seqRep, detWorkers, parRep)
	}
}

// runParityGSM gathers all input atoms up a fan-in tree of Info merges;
// information sets are canonical (sorted, deduped), so cell contents must
// match exactly across worker counts.
func runParityGSM(t *testing.T, workers int) (res int64, cells []gsm.Info, rep cost.Report, proc, cell []string) {
	t.Helper()
	const n, fanin = 512, 4
	const gamma = 2
	bits := workload.Bits(11, n)
	r := (n + gamma - 1) / gamma
	m, err := gsm.New(gsm.Config{
		P: r, Alpha: 2, Beta: 3, Gamma: gamma, N: n,
		Cells:   gsmalg.CellsNeedGather(r),
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTracing()
	if err := m.LoadInputs(bits); err != nil {
		t.Fatal(err)
	}
	res, err = gsmalg.ParityGSM(m, n, fanin)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	cells = make([]gsm.Info, m.MemSize())
	for a := range cells {
		cells[a] = m.Peek(a)
	}
	tr := m.TraceLog()
	for p := 0; p < r; p++ {
		for ph := 0; ph <= tr.NumPhases(); ph++ {
			proc = append(proc, tr.ProcKey(p, ph))
		}
	}
	for c := 0; c < m.MemSize(); c++ {
		for ph := 0; ph <= tr.NumPhases(); ph++ {
			cell = append(cell, tr.CellKey(c, ph))
		}
	}
	return res, cells, *m.Report(), proc, cell
}

// eventStream runs a small algorithm on a freshly built machine with the
// given worker count and returns its observer event stream. The streams
// are the engine's strongest determinism artifact: every committed
// request, in order, with rendered payloads.
func eventStream(t *testing.T, build func(workers int) (Machine, func() error)) func(int) []string {
	t.Helper()
	return func(workers int) []string {
		m, run := build(workers)
		ev := Observe(m)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return ev.Lines()
	}
}

// TestDeterminismEventStreams asserts, for one algorithm per model, that
// the full observer event stream is identical between Workers=1 and
// Workers=N. It runs under -race in CI, so it also exercises the
// emit-from-coordinator contract.
func TestDeterminismEventStreams(t *testing.T) {
	cases := []struct {
		name  string
		build func(workers int) (Machine, func() error)
	}{
		{"QSM/parity-tree", func(workers int) (Machine, func() error) {
			const n = 256
			in := workload.Bits(5, n)
			m, err := qsm.New(qsm.Config{
				Rule: cost.RuleQSM, P: n, G: 2, N: n, MemCells: 2 * n, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m, func() error {
				if err := m.Load(0, in); err != nil {
					return err
				}
				_, err := parity.TreeQSM(m, 0, n, 4)
				return err
			}
		}},
		{"QSM/parity-tree-bool", func(workers int) (Machine, func() error) {
			// Bit-packed twin of parity-tree: the same request sequence
			// flows through BitMem's packed column barrier.
			const n = 256
			in := workload.Bits(5, n)
			m, err := qsm.NewBool(qsm.Config{
				Rule: cost.RuleQSM, P: n, G: 2, N: n, MemCells: 2 * n, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m, func() error {
				if err := m.Load(0, in); err != nil {
					return err
				}
				_, err := parity.TreeBool(m, 0, n, 4)
				return err
			}
		}},
		{"QSM/sparse-forall", func(workers int) (Machine, func() error) {
			// Shrinking ForAll prefixes: only the first k processors
			// are dispatched, so the prefix splits into fewer and
			// narrower chunks than p would.
			const p = 256
			in := workload.Bits(5, p)
			m, err := qsm.New(qsm.Config{
				Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 2 * p, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m, func() error {
				if err := m.Load(0, in); err != nil {
					return err
				}
				for _, k := range []int{200, 37, 5, 1} {
					m.ForAll(k, func(c *qsm.Ctx) {
						v := c.Read(c.Proc() % 7)
						c.Op(c.Proc() % 3)
						c.Write(p+c.Proc(), v+int64(k))
					})
				}
				return m.Err()
			}
		}},
		{"QSM/parity-gadget", func(workers int) (Machine, func() error) {
			// The contention gadget dispatches each level's active
			// groups only, with every checker racing for its kill cell.
			const n, groupBits = 64, 2
			in := workload.Bits(5, n)
			p := (n + groupBits - 1) / groupBits * groupBits << groupBits
			m, err := qsm.New(qsm.Config{
				Rule: cost.RuleQSM, P: p, G: 4, N: n, MemCells: n, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m, func() error {
				if err := m.Load(0, in); err != nil {
					return err
				}
				_, err := parity.GadgetQSM(m, 0, n, groupBits)
				return err
			}
		}},
		{"BSP/parity", func(workers int) (Machine, func() error) {
			const n, p = 256, 16
			in := workload.Bits(5, n)
			m, err := bsp.New(bsp.Config{
				P: p, G: 2, L: 8, N: n,
				PrivCells: parity.PrivNeedBSP(n, p), Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m, func() error {
				if err := m.Scatter(in); err != nil {
					return err
				}
				_, err := parity.RunBSP(m, n, 4)
				return err
			}
		}},
		{"BSP/sample-sort", func(workers int) (Machine, func() error) {
			// Sample sort routes every key with SendBatch, so this case
			// drives the columnar StageBatch path through the full
			// routing commit.
			const n, p = 512, 16
			keys := make([]int64, n)
			rng := rand.New(rand.NewSource(9))
			for i := range keys {
				keys[i] = rng.Int63n(1 << 16)
			}
			m, err := bsp.New(bsp.Config{
				P: p, G: 1, L: 4, N: n,
				PrivCells: sortrank.PrivNeedSampleSortBSP(n, p), Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m, func() error {
				if err := m.Scatter(keys); err != nil {
					return err
				}
				_, err := sortrank.SampleSortBSP(m, n)
				return err
			}
		}},
		{"GSM/parity-gather", func(workers int) (Machine, func() error) {
			const n, gamma = 128, 2
			in := workload.Bits(5, n)
			r := (n + gamma - 1) / gamma
			m, err := gsm.New(gsm.Config{
				P: r, Alpha: 2, Beta: 3, Gamma: gamma, N: n,
				Cells: gsmalg.CellsNeedGather(r), Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return m, func() error {
				if err := m.LoadInputs(in); err != nil {
					return err
				}
				_, err := gsmalg.ParityGSM(m, n, 4)
				return err
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := eventStream(t, tc.build)
			seq := stream(1)
			par := stream(detWorkers)
			if len(seq) == 0 {
				t.Fatal("empty event stream")
			}
			if !reflect.DeepEqual(seq, par) {
				for i := range seq {
					if i >= len(par) {
						break
					}
					if seq[i] != par[i] {
						t.Fatalf("event streams diverge at line %d:\nWorkers=1: %q\nWorkers=%d: %q",
							i, seq[i], detWorkers, par[i])
					}
				}
				t.Fatalf("event stream lengths differ: %d vs %d", len(seq), len(par))
			}
		})
	}
}

func TestDeterminismParityGSM(t *testing.T) {
	seqRes, seqCells, seqRep, seqProc, seqCell := runParityGSM(t, 1)
	parRes, parCells, parRep, parProc, parCell := runParityGSM(t, detWorkers)
	if seqRes != parRes {
		t.Errorf("result: Workers=1 got %d, Workers=%d got %d", seqRes, detWorkers, parRes)
	}
	if !reflect.DeepEqual(seqCells, parCells) {
		t.Error("final cells differ between Workers=1 and Workers=N")
	}
	if !reflect.DeepEqual(seqRep, parRep) {
		t.Errorf("cost reports differ:\nWorkers=1: %+v\nWorkers=%d: %+v", seqRep, detWorkers, parRep)
	}
	if !reflect.DeepEqual(seqProc, parProc) {
		t.Error("processor trace keys differ between Workers=1 and Workers=N")
	}
	if !reflect.DeepEqual(seqCell, parCell) {
		t.Error("cell trace keys differ between Workers=1 and Workers=N")
	}
}
