package repro

// The benchmark harness regenerates every row of the paper's Table 1:
// each BenchmarkTable1/<row ID> executes the matching Section 8
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

	"repro/internal/core"
	"repro/internal/sweep"
)

// BenchmarkTable1 runs every registered Table 1 experiment at its
// sweep.Table1BenchN size inside the benchmark loop, one sub-benchmark
// per row ID.
func BenchmarkTable1(b *testing.B) {
	for _, e := range core.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			n := sweep.Table1BenchN(e.ID)
			var row core.Row
			for i := 0; i < b.N; i++ {
				var err error
				if row, err = e.RunPoint(n, int64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(row.Measured, e.Quantity)
			b.ReportMetric(row.Bound, "bound")
			if row.Bound > 0 {
				b.ReportMetric(row.Ratio, "ratio")
			}
		})
	}
}

// --- simulator microbenchmarks -------------------------------------------------

// BenchmarkPhaseCommit isolates the phase/superstep *commit* stage —
// contention counting, winner resolution, message routing — which
// dominates Table 1 sweeps at large p. It runs every body of the
// sweep.CommitBenches registry (which the CI bench gate times too) at
// each of its sizes. Run with -benchmem; before/after numbers are
// recorded in EXPERIMENTS.md.
func BenchmarkPhaseCommit(b *testing.B) {
	for _, cb := range sweep.CommitBenches {
		for _, pt := range cb.Points {
			b.Run(cb.Name+"/"+pt.String(), func(b *testing.B) { cb.Time(b, pt) })
		}
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
