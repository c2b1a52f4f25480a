package repro

// The benchmark harness regenerates every row of the paper's Table 1:
// each BenchmarkT<table>_<model>_<problem> executes the matching Section 8
// algorithm on the cost simulator at a representative size and reports
//
//	modelTime  — the simulated machine time charged by the cost rules
//	bound      — the Table 1 lower-bound formula at that size
//	ratio      — modelTime/bound (flat across sizes for the Θ rows;
//	             run cmd/tables for the full sweeps)
//	rounds     — the phase count, for the rounds-table benchmarks
//
// alongside the usual ns/op of the simulation itself. Simulator
// microbenchmarks at the bottom measure the harness's own throughput.

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gsm"
	"repro/internal/qsm"
)

// benchExperiment runs one registered Table 1 experiment at a single
// sweep point inside the benchmark loop.
func benchExperiment(b *testing.B, id string, n int) {
	b.Helper()
	e := core.ExperimentByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	args := e.Args(n)
	entry := BoundByID(id)
	var measured float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		measured, _, err = e.Measure(n, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bound := entry.Eval(args)
	b.ReportMetric(measured, e.Quantity)
	b.ReportMetric(bound, "bound")
	if bound > 0 {
		b.ReportMetric(measured/bound, "ratio")
	}
}

// --- Table 1a: time lower bounds, QSM ---

func BenchmarkT1_QSM_LAC_Det(b *testing.B)        { benchExperiment(b, "T1.LAC.det", 1<<12) }
func BenchmarkT1_QSM_LAC_Rand(b *testing.B)       { benchExperiment(b, "T1.LAC.rand", 1<<12) }
func BenchmarkT1_QSM_LAC_RandNProcs(b *testing.B) { benchExperiment(b, "T1.LAC.rand.nprocs", 1<<12) }
func BenchmarkT1_QSM_OR_Det(b *testing.B)         { benchExperiment(b, "T1.OR.det", 1<<12) }
func BenchmarkT1_QSM_OR_Rand(b *testing.B)        { benchExperiment(b, "T1.OR.rand", 1<<12) }
func BenchmarkT1_QSM_Parity_Det(b *testing.B)     { benchExperiment(b, "T1.Parity.det", 1<<11) }
func BenchmarkT1_QSM_Parity_Rand(b *testing.B)    { benchExperiment(b, "T1.Parity.rand", 1<<11) }

// --- Table 1b: time lower bounds, s-QSM ---

func BenchmarkT2_SQSM_LAC_Det(b *testing.B)     { benchExperiment(b, "T2.LAC.det", 1<<12) }
func BenchmarkT2_SQSM_LAC_Rand(b *testing.B)    { benchExperiment(b, "T2.LAC.rand", 1<<12) }
func BenchmarkT2_SQSM_OR_Det(b *testing.B)      { benchExperiment(b, "T2.OR.det", 1<<12) }
func BenchmarkT2_SQSM_OR_Rand(b *testing.B)     { benchExperiment(b, "T2.OR.rand", 1<<12) }
func BenchmarkT2_SQSM_Parity_Det(b *testing.B)  { benchExperiment(b, "T2.Parity.det", 1<<12) }
func BenchmarkT2_SQSM_Parity_Rand(b *testing.B) { benchExperiment(b, "T2.Parity.rand", 1<<12) }

// --- Table 1c: time lower bounds, BSP ---

func BenchmarkT3_BSP_LAC_Det(b *testing.B)     { benchExperiment(b, "T3.LAC.det", 1<<12) }
func BenchmarkT3_BSP_LAC_Rand(b *testing.B)    { benchExperiment(b, "T3.LAC.rand", 1<<12) }
func BenchmarkT3_BSP_OR_Det(b *testing.B)      { benchExperiment(b, "T3.OR.det", 1<<12) }
func BenchmarkT3_BSP_OR_Rand(b *testing.B)     { benchExperiment(b, "T3.OR.rand", 1<<12) }
func BenchmarkT3_BSP_Parity_Det(b *testing.B)  { benchExperiment(b, "T3.Parity.det", 1<<12) }
func BenchmarkT3_BSP_Parity_Rand(b *testing.B) { benchExperiment(b, "T3.Parity.rand", 1<<12) }

// --- Table 1d: rounds for p-processor algorithms ---

func BenchmarkT4_Rounds_LAC_QSM(b *testing.B)     { benchExperiment(b, "T4.LAC.qsm", 1<<12) }
func BenchmarkT4_Rounds_LAC_SQSM(b *testing.B)    { benchExperiment(b, "T4.LAC.sqsm", 1<<12) }
func BenchmarkT4_Rounds_LAC_BSP(b *testing.B)     { benchExperiment(b, "T4.LAC.bsp", 1<<12) }
func BenchmarkT4_Rounds_OR_QSM(b *testing.B)      { benchExperiment(b, "T4.OR.qsm", 1<<12) }
func BenchmarkT4_Rounds_OR_SQSM(b *testing.B)     { benchExperiment(b, "T4.OR.sqsm", 1<<12) }
func BenchmarkT4_Rounds_OR_BSP(b *testing.B)      { benchExperiment(b, "T4.OR.bsp", 1<<12) }
func BenchmarkT4_Rounds_Parity_QSM(b *testing.B)  { benchExperiment(b, "T4.Parity.qsm", 1<<12) }
func BenchmarkT4_Rounds_Parity_SQSM(b *testing.B) { benchExperiment(b, "T4.Parity.sqsm", 1<<12) }
func BenchmarkT4_Rounds_Parity_BSP(b *testing.B)  { benchExperiment(b, "T4.Parity.bsp", 1<<12) }

// --- simulator microbenchmarks -------------------------------------------------

// The BenchmarkPhaseCommit_* family isolates the phase/superstep *commit*
// stage — contention counting, winner resolution, message routing — which
// dominates Table 1 sweeps at large p. Bodies are deliberately trivial so
// ns/op tracks the barrier merge, across contention profiles:
//
//	Low   — every processor touches its own cells (κ = 1)
//	High  — p processors funnel into a handful of cells (κ = Θ(p))
//	Tree  — fan-in-8 write tree level (κ = 8), the common algorithmic shape
//
// Run with -benchmem; before/after numbers are recorded in EXPERIMENTS.md.

func benchQSMCommit(b *testing.B, p, cells int, body func(c *qsm.Ctx)) {
	b.Helper()
	m, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: cells})
	if err != nil {
		b.Fatal(err)
	}
	m.Phase(body) // untimed: grow the machine to its steady state first
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Phase(body)
	}
	b.StopTimer()
	if m.Err() != nil {
		b.Fatal(m.Err())
	}
}

func BenchmarkPhaseCommit_QSM_LowContention(b *testing.B) {
	for _, p := range []int{1 << 14, 1 << 17, 1 << 20} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchQSMCommit(b, p, 2*p, func(c *qsm.Ctx) {
				v := c.Read(c.Proc())
				c.Write(p+c.Proc(), v+1)
			})
		})
	}
}

func BenchmarkPhaseCommit_QSM_HighContention(b *testing.B) {
	for _, p := range []int{1 << 14, 1 << 17, 1 << 20} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchQSMCommit(b, p, 64, func(c *qsm.Ctx) {
				c.Write(c.Proc()%64, int64(c.Proc()))
			})
		})
	}
}

func BenchmarkPhaseCommit_QSM_TreeFanin8(b *testing.B) {
	for _, p := range []int{1 << 14, 1 << 17, 1 << 20} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchQSMCommit(b, p, p+p/8+1, func(c *qsm.Ctx) {
				v := c.Read(c.Proc())
				c.Write(p+c.Proc()/8, v|1)
			})
		})
	}
}

// BenchmarkPhaseCommit_QSM_BatchBlock drives the columnar submission
// path: each processor reads a k-cell block and fills a k-cell block, so
// one phase carries 2·p·k requests. The largest point (p=2^17, k=80) is
// ~21M requests — roughly 10× the per-cell envelope above — and the
// struct-of-arrays columns keep allocs/op flat across the whole sweep.
func BenchmarkPhaseCommit_QSM_BatchBlock(b *testing.B) {
	for _, sz := range []struct{ p, k int }{{1 << 14, 16}, {1 << 17, 16}, {1 << 17, 80}} {
		b.Run(fmt.Sprintf("p=%d/k=%d", sz.p, sz.k), func(b *testing.B) {
			p, k := sz.p, sz.k
			benchQSMCommit(b, p, 2*p*k, func(c *qsm.Ctx) {
				pr := c.Proc()
				c.ReadBlock(pr*k, k)
				c.WriteFill(p*k+pr*k, k, int64(pr))
			})
		})
	}
}

// BenchmarkPhaseCommit_Bool_WordScan drives the bit-packed memory: each
// processor reads a 64-bit word (64 charged cell reads through one
// ReadWord) and writes a summary bit. At p=2^18 a phase carries ~17M
// requests over a shared memory of only 2 MB of packed words.
func BenchmarkPhaseCommit_Bool_WordScan(b *testing.B) {
	for _, p := range []int{1 << 14, 1 << 17, 1 << 18} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m, err := qsm.NewBool(qsm.Config{
				Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 65 * p,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Phase(func(c *qsm.BoolCtx) {
					w := c.ReadWord(c.Proc()*64, 64)
					c.Write(64*p+c.Proc(), w != 0)
				})
			}
			b.StopTimer()
			if m.Err() != nil {
				b.Fatal(m.Err())
			}
		})
	}
}

func BenchmarkPhaseCommit_BSP_Shift(b *testing.B) {
	for _, p := range []int{1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m, err := bsp.New(bsp.Config{P: p, G: 2, L: 8, N: p, PrivCells: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Superstep(func(c *bsp.Ctx) {
					for k := 0; k < 4; k++ {
						c.Send((c.Comp()+k+1)%p, int64(k), int64(c.Comp()))
					}
				})
			}
			b.StopTimer()
			if m.Err() != nil {
				b.Fatal(m.Err())
			}
		})
	}
}

func BenchmarkPhaseCommit_GSM_Gather(b *testing.B) {
	const p = 1 << 14
	m, err := gsm.New(gsm.Config{P: p, Alpha: 4, Beta: 4, Gamma: 1, N: p, Cells: p + p/4 + 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Phase(func(c *gsm.Ctx) {
			c.Write(p+c.Proc()/4, gsm.NewInfo(int64(c.Proc())))
		})
	}
	b.StopTimer()
	if m.Err() != nil {
		b.Fatal(m.Err())
	}
}

func BenchmarkSimQSMPhase(b *testing.B) {
	for _, p := range []int{1 << 8, 1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m, err := NewQSM(p, 2, p, 2*p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Phase(func(c *QSMCtx) {
					v := c.Read(c.Proc())
					c.Op(1)
					c.Write(p+c.Proc(), v+1)
				})
			}
			if m.Err() != nil {
				b.Fatal(m.Err())
			}
		})
	}
}

func BenchmarkSimBSPSuperstep(b *testing.B) {
	for _, p := range []int{1 << 8, 1 << 12} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m, err := NewBSP(p, 2, 8, p, 4)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Superstep(func(c *BSPCtx) {
					c.Send((c.Comp()+1)%p, 0, int64(i))
					c.Work(1)
				})
			}
			if m.Err() != nil {
				b.Fatal(m.Err())
			}
		})
	}
}

func BenchmarkBoolfnDegree(b *testing.B) {
	f := ParityFn(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Degree() != 16 {
			b.Fatal("wrong degree")
		}
	}
}

func BenchmarkPrefixSumsQSM(b *testing.B) {
	const n = 1 << 12
	in := RandomBits(1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewQSM(n, 2, n, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(0, in); err != nil {
			b.Fatal(err)
		}
		if _, err := PrefixSums(m, 0, n, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the gadget's group width trades levels against contention —
// the design choice behind the QSM vs CRQW parity upper bounds.
func BenchmarkAblationGadgetGroupBits(b *testing.B) {
	const n = 1 << 10
	for _, gb := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("m=%d", gb), func(b *testing.B) {
			perGroup := gb << uint(gb)
			procs := ((n + gb - 1) / gb) * perGroup
			in := RandomBits(5, n)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewCRQW(procs, 8, n, n)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Load(0, in); err != nil {
					b.Fatal(err)
				}
				out, err := ParityGadget(m, 0, n, gb)
				if err != nil {
					b.Fatal(err)
				}
				if m.Peek(out) != ReferenceParity(in) {
					b.Fatal("wrong parity")
				}
				total = int64(m.Report().TotalTime)
			}
			b.ReportMetric(float64(total), "modelTime")
		})
	}
}

// Ablation: OR fan-in on the QSM — the contention sweet spot is fan-in g.
func BenchmarkAblationORFanin(b *testing.B) {
	const n = 1 << 12
	const g = 8
	for _, fanin := range []int{2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("fanin=%d", fanin), func(b *testing.B) {
			in := RandomBits(9, n)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewQSM(n, g, n, n)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Load(0, in); err != nil {
					b.Fatal(err)
				}
				if _, err := ORContentionTree(m, 0, n, fanin); err != nil {
					b.Fatal(err)
				}
				total = int64(m.Report().TotalTime)
			}
			b.ReportMetric(float64(total), "modelTime")
		})
	}
}

// --- extension benchmarks: GSM theorems, QSM(g,d), design ablations ------------

// Theorem 3.1's shape on the GSM itself: gather time vs μ·log r/log μ.
func BenchmarkGSMParityGather(b *testing.B) {
	const n = 1 << 12
	for _, alpha := range []int64{2, 4, 8} {
		b.Run(fmt.Sprintf("mu=%d", alpha), func(b *testing.B) {
			bits := RandomBits(7, n)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewGSM(n, alpha, alpha, 1, n, GSMGatherCells(n))
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadInputs(bits); err != nil {
					b.Fatal(err)
				}
				got, err := ParityGSM(m, n, int(alpha))
				if err != nil {
					b.Fatal(err)
				}
				if got != ReferenceParity(bits) {
					b.Fatal("wrong parity")
				}
				total = int64(m.Report().TotalTime)
			}
			b.ReportMetric(float64(total), "modelTime")
		})
	}
}

// Claim 2.2 sweep: the contention-OR cost on QSM(g,d) interpolates between
// the QSM and s-QSM endpoints as d grows.
func BenchmarkQSMGDSweep(b *testing.B) {
	const n = 1 << 12
	const g = 8
	for _, d := range []int64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			in := RandomBits(3, n)
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewQSMGD(n, g, d, n, n)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Load(0, in); err != nil {
					b.Fatal(err)
				}
				if _, err := ORContentionTree(m, 0, n, g); err != nil {
					b.Fatal(err)
				}
				total = int64(m.Report().TotalTime)
			}
			b.ReportMetric(float64(total), "modelTime")
		})
	}
}

// Ablation: the dart-throwing oversizing factor trades output size against
// retry rounds (DartFactor = 4 in the library).
func BenchmarkAblationDartRounds(b *testing.B) {
	const n = 1 << 12
	in, err := SparseItems(5, n, n/4)
	if err != nil {
		b.Fatal(err)
	}
	var rounds, outSize int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewSQSM(n, 4, n, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(0, in); err != nil {
			b.Fatal(err)
		}
		res, err := CompactDarts(m, int64(i)+1, 0, n)
		if err != nil {
			b.Fatal(err)
		}
		rounds, outSize = res.Rounds, res.OutSize
	}
	b.ReportMetric(float64(rounds), "dartRounds")
	b.ReportMetric(float64(outSize)/float64(n/4), "spacePerItem")
}

// Ablation: broadcast fan-out on the QSM — [1]'s Θ(g·log n/log g) optimum
// sits at fan-out g.
func BenchmarkAblationBroadcastFanout(b *testing.B) {
	const n = 1 << 12
	const g = 8
	for _, fanout := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewQSM(n, g, n, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Load(0, []int64{1}); err != nil {
					b.Fatal(err)
				}
				if _, err := Broadcast(m, 0, n, fanout); err != nil {
					b.Fatal(err)
				}
				total = int64(m.Report().TotalTime)
			}
			b.ReportMetric(float64(total), "modelTime")
		})
	}
}

// Randomized vs deterministic OR on the CRQW (the §8 w.h.p. claim).
func BenchmarkRandomizedORCRQW(b *testing.B) {
	const n = 1 << 14
	in := RandomBits(9, n)
	var total int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewCRQW(n, 4, n, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load(0, in); err != nil {
			b.Fatal(err)
		}
		if _, err := ORRandomized(m, int64(i)+1, 0, n); err != nil {
			b.Fatal(err)
		}
		total = int64(m.Report().TotalTime)
	}
	b.ReportMetric(float64(total), "modelTime")
}

// --- library throughput benchmarks ----------------------------------------------

func BenchmarkListRankQSM(b *testing.B) {
	const n = 1 << 10
	b.ReportAllocs()
	var modelTime int64
	for i := 0; i < b.N; i++ {
		m, err := NewQSM(n, 2, n, n)
		if err != nil {
			b.Fatal(err)
		}
		next := make([]int64, n)
		for j := 0; j+1 < n; j++ {
			next[j] = int64(j + 1)
		}
		next[n-1] = int64(n - 1)
		if err := m.Load(0, next); err != nil {
			b.Fatal(err)
		}
		ranks, err := ListRank(m, 0, n)
		if err != nil {
			b.Fatal(err)
		}
		if m.Peek(ranks) != int64(n-1) {
			b.Fatal("wrong head rank")
		}
		modelTime = int64(m.Report().TotalTime)
	}
	b.ReportMetric(float64(modelTime), "modelTime")
}

func BenchmarkSampleSortBSP(b *testing.B) {
	const n, p = 1 << 12, 32
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64((i * 2654435761) % (1 << 30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewBSP(p, 2, 8, n, SampleSortBSPPrivCells(n, p))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Scatter(keys); err != nil {
			b.Fatal(err)
		}
		if _, err := SampleSortBSP(m, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaddedSortBSP(b *testing.B) {
	const n, p = 1 << 12, 32
	vals := Uniform01(3, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewBSP(p, 2, 8, n, PaddedSortBSPPrivCells(n, p, 2))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Scatter(vals); err != nil {
			b.Fatal(err)
		}
		if _, err := PaddedSortBSP(m, n, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcastBSPvsQSM(b *testing.B) {
	const n = 1 << 12
	b.Run("qsm-fanout-g", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := NewQSM(n, 8, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			m.Load(0, []int64{1})
			if _, err := Broadcast(m, 0, n, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}
