package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gsm"
	"repro/internal/qsm"
)

// The bench snapshot freezes two kinds of numbers for the hot paths the
// top-level bench_test.go exercises:
//
//   - deterministic model metrics (measured cost, bound, ratio, model
//     time per committed phase) — these must reproduce exactly, so the
//     comparison gate treats any drift as a determinism regression;
//   - host performance (ns/op, B/op, allocs/op) — these are noisy, so
//     the gate only fails on order-of-magnitude blowups.
//
// The committed snapshot (BENCH_pr7.json) is the baseline CI diffs
// against; regenerate it with `parsim sweep -bench` after intentional
// performance or cost-model changes.

// BenchResult is one benchmark's snapshot entry.
type BenchResult struct {
	// Name is the stable benchmark identifier (slash-separated).
	Name string `json:"name"`
	// Iters is the measured iteration count (informational).
	Iters int `json:"iters"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the host-side numbers.
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// Metrics are the deterministic model-side numbers, computed outside
	// the timed loop at a fixed seed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchSnapshot is a labelled set of benchmark results.
type BenchSnapshot struct {
	Label   string        `json:"label"`
	Benches []BenchResult `json:"benches"`
}

// Comparison tolerances for the host-side numbers. Model metrics get no
// tolerance — they are deterministic by contract.
const (
	// DefaultNsTolerance fails ns/op only beyond a 3× slowdown: CI boxes
	// are noisy, and the deterministic metrics catch real model drift.
	DefaultNsTolerance = 3.0
	// DefaultAllocTolerance fails allocs/op beyond a 25% growth (with a
	// small absolute slack for near-zero baselines).
	DefaultAllocTolerance = 1.25
	// allocSlack is the absolute allocs/op growth ignored regardless of
	// the relative tolerance.
	allocSlack = 16
)

// benchExperiments mirrors the representative Table 1 rows of
// bench_test.go, one per sub-table, at the bench_test sizes.
var benchExperiments = []struct {
	ID string
	N  int
}{
	{"T1.Parity.det", 1 << 11},
	{"T2.Parity.det", 1 << 12},
	{"T3.Parity.det", 1 << 12},
	{"T4.LAC.qsm", 1 << 12},
}

// benchCommitProcs matches the smallest phase-commit size bench_test.go
// sweeps; one point is enough for a regression gate.
const benchCommitProcs = 1 << 14

// RunBenchSnapshot measures every bench whose name contains filter
// ("" = all) and returns the labelled snapshot. It uses
// testing.Benchmark, so each bench self-calibrates its iteration count;
// the deterministic metrics are computed once, outside the timed loops.
func RunBenchSnapshot(label, filter string) (*BenchSnapshot, error) {
	s := &BenchSnapshot{Label: label}
	add := func(r BenchResult, err error) error {
		if err != nil {
			return err
		}
		if filter == "" || strings.Contains(r.Name, filter) {
			s.Benches = append(s.Benches, r)
		}
		return nil
	}
	for _, be := range benchExperiments {
		// Matching against the name before running would be cheaper, but
		// the names are fixed and few; clarity wins.
		name := fmt.Sprintf("Sweep/exp/%s/n=%d", be.ID, be.N)
		if filter != "" && !strings.Contains(name, filter) {
			continue
		}
		if err := add(benchExperimentCell(name, be.ID, be.N)); err != nil {
			return nil, err
		}
	}
	commits := []struct {
		name string
		run  func(name string) (BenchResult, error)
	}{
		{"Sweep/commit/qsm-low", benchQSMLow},
		{"Sweep/commit/qsm-high", benchQSMHigh},
		{"Sweep/commit/qsm-tree8", benchQSMTree8},
		{"Sweep/commit/qsm-batch", benchQSMBatch},
		{"Sweep/commit/bool-word", benchBoolWord},
		{"Sweep/commit/bsp-shift", benchBSPShift},
		{"Sweep/commit/gsm-gather", benchGSMGather},
		{"Sweep/cell/qsm-parity", benchRunCell},
	}
	for _, c := range commits {
		if filter != "" && !strings.Contains(c.name, filter) {
			continue
		}
		if err := add(c.run(c.name)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// result converts a testing.BenchmarkResult, rejecting failed runs
// (testing.Benchmark returns a zeroed result when the bench fails).
func result(name string, metrics map[string]float64, r testing.BenchmarkResult) (BenchResult, error) {
	if r.N <= 0 {
		return BenchResult{}, fmt.Errorf("sweep: benchmark %s failed", name)
	}
	return BenchResult{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     metrics,
	}, nil
}

// benchExperimentCell times one experiment Measure call and records the
// row's deterministic quantities at seed 1.
func benchExperimentCell(name, id string, n int) (BenchResult, error) {
	e := core.ExperimentByID(id)
	if e == nil {
		return BenchResult{}, fmt.Errorf("sweep: unknown experiment %q", id)
	}
	row, err := e.RunPoint(n, 1)
	if err != nil {
		return BenchResult{}, err
	}
	metrics := map[string]float64{
		e.Quantity: row.Measured,
		"bound":    row.Bound,
		"ratio":    row.Ratio,
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.Measure(n, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	return result(name, metrics, r)
}

// qsmCommitMachine builds the phase-commit benchmark machine.
func qsmCommitMachine(p, cells int) (*qsm.Machine, error) {
	return qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: cells})
}

// benchQSMCommit times one phase body on a fresh machine, recording the
// model time the first committed phase charges.
func benchQSMCommit(name string, cells int, body func(c *qsm.Ctx)) (BenchResult, error) {
	probe, err := qsmCommitMachine(benchCommitProcs, cells)
	if err != nil {
		return BenchResult{}, err
	}
	probe.Phase(body)
	if probe.Err() != nil {
		return BenchResult{}, probe.Err()
	}
	metrics := map[string]float64{"modelTime": float64(probe.Report().TotalTime)}
	r := testing.Benchmark(func(b *testing.B) {
		m, err := qsmCommitMachine(benchCommitProcs, cells)
		if err != nil {
			b.Fatal(err)
		}
		// One untimed phase grows the machine to its steady state, so the
		// timed loop measures steady-state phases, not warm-up.
		m.Phase(body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Phase(body)
		}
		b.StopTimer()
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
	})
	return result(name, metrics, r)
}

func benchQSMLow(name string) (BenchResult, error) {
	const p = benchCommitProcs
	return benchQSMCommit(name, 2*p, func(c *qsm.Ctx) {
		v := c.Read(c.Proc())
		c.Write(p+c.Proc(), v+1)
	})
}

func benchQSMHigh(name string) (BenchResult, error) {
	return benchQSMCommit(name, 64, func(c *qsm.Ctx) {
		c.Write(c.Proc()%64, int64(c.Proc()))
	})
}

func benchQSMTree8(name string) (BenchResult, error) {
	const p = benchCommitProcs
	return benchQSMCommit(name, p+p/8+1, func(c *qsm.Ctx) {
		v := c.Read(c.Proc())
		c.Write(p+c.Proc()/8, v|1)
	})
}

// benchQSMBatch gates the columnar submission path: block reads and
// fills through the struct-of-arrays request buffers, at a gate-sized
// per-processor batch (the full envelope sweep lives in bench_test.go).
func benchQSMBatch(name string) (BenchResult, error) {
	const p, k = benchCommitProcs, 16
	return benchQSMCommit(name, 2*p*k, func(c *qsm.Ctx) {
		pr := c.Proc()
		c.ReadBlock(pr*k, k)
		c.WriteFill(p*k+pr*k, k, int64(pr))
	})
}

// benchBoolWord gates the bit-packed memory: one 64-bit ReadWord (64
// charged cell reads) plus a summary-bit write per processor.
func benchBoolWord(name string) (BenchResult, error) {
	const p = benchCommitProcs
	cfg := qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 65 * p}
	body := func(c *qsm.BoolCtx) {
		w := c.ReadWord(c.Proc()*64, 64)
		c.Write(64*p+c.Proc(), w != 0)
	}
	probe, err := qsm.NewBool(cfg)
	if err != nil {
		return BenchResult{}, err
	}
	probe.Phase(body)
	if probe.Err() != nil {
		return BenchResult{}, probe.Err()
	}
	metrics := map[string]float64{"modelTime": float64(probe.Report().TotalTime)}
	r := testing.Benchmark(func(b *testing.B) {
		m, err := qsm.NewBool(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.Phase(body) // untimed warm-up, as in benchQSMCommit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Phase(body)
		}
		b.StopTimer()
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
	})
	return result(name, metrics, r)
}

func benchBSPShift(name string) (BenchResult, error) {
	const p = benchCommitProcs
	cfg := bsp.Config{P: p, G: 2, L: 8, N: p, PrivCells: 1}
	body := func(c *bsp.Ctx) {
		for k := 0; k < 4; k++ {
			c.Send((c.Comp()+k+1)%p, int64(k), int64(c.Comp()))
		}
	}
	probe, err := bsp.New(cfg)
	if err != nil {
		return BenchResult{}, err
	}
	probe.Superstep(body)
	if probe.Err() != nil {
		return BenchResult{}, probe.Err()
	}
	metrics := map[string]float64{"modelTime": float64(probe.Report().TotalTime)}
	r := testing.Benchmark(func(b *testing.B) {
		m, err := bsp.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.Superstep(body) // untimed warm-up, as in benchQSMCommit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Superstep(body)
		}
		b.StopTimer()
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
	})
	return result(name, metrics, r)
}

func benchGSMGather(name string) (BenchResult, error) {
	const p = benchCommitProcs
	cfg := gsm.Config{P: p, Alpha: 4, Beta: 4, Gamma: 1, N: p, Cells: p + p/4 + 1}
	body := func(c *gsm.Ctx) {
		c.Write(p+c.Proc()/4, gsm.NewInfo(int64(c.Proc())))
	}
	probe, err := gsm.New(cfg)
	if err != nil {
		return BenchResult{}, err
	}
	probe.Phase(body)
	if probe.Err() != nil {
		return BenchResult{}, probe.Err()
	}
	metrics := map[string]float64{"modelTime": float64(probe.Report().TotalTime)}
	r := testing.Benchmark(func(b *testing.B) {
		m, err := gsm.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.Phase(body) // untimed warm-up, as in benchQSMCommit
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Phase(body)
		}
		b.StopTimer()
		if m.Err() != nil {
			b.Fatal(m.Err())
		}
	})
	return result(name, metrics, r)
}

// benchRunCell times the whole per-cell harness path (registry dispatch,
// machine construction, algorithm, oracle, record assembly).
func benchRunCell(name string) (BenchResult, error) {
	cell := Cell{Model: "qsm", Alg: "parity", N: 1 << 10, Seed: 1}
	rec := RunCell(cell, RunConfig{})
	if rec.Status != StatusOK {
		return BenchResult{}, fmt.Errorf("sweep: bench cell %s: %s %s", rec.Key, rec.Status, rec.Error)
	}
	metrics := map[string]float64{
		"modelTime": rec.Time,
		"phases":    float64(rec.Phases),
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := RunCell(cell, RunConfig{}); out.Status != StatusOK {
				b.Fatalf("cell %s: %s", out.Key, out.Status)
			}
		}
	})
	return result(name, metrics, r)
}

// Benchstat renders the snapshot in the Go benchmark text format, so
// `benchstat old.txt new.txt` compares two snapshots directly.
func (s *BenchSnapshot) Benchstat() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goos: %s\ngoarch: %s\npkg: repro/internal/sweep\n", runtime.GOOS, runtime.GOARCH)
	for _, r := range s.Benches {
		fmt.Fprintf(&b, "Benchmark%s %d %.1f ns/op %d B/op %d allocs/op",
			strings.ReplaceAll(r.Name, " ", "_"), r.Iters, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics { //lint:maporder-ok keys are sorted before use
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %g %s", r.Metrics[k], k)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteFile persists the snapshot as indented JSON.
func (s *BenchSnapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchSnapshot loads a snapshot written by WriteFile.
func ReadBenchSnapshot(path string) (*BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &BenchSnapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return s, nil
}

// CompareBenchSnapshots diffs current against base and returns the
// regressions (empty = gate passes). Deterministic metrics compare
// exactly; ns/op and allocs/op compare against the tolerances
// (0 = defaults). New benches absent from base pass — commit a fresh
// baseline to start gating them.
func CompareBenchSnapshots(base, cur *BenchSnapshot, nsTol, allocTol float64) []string {
	if nsTol <= 0 {
		nsTol = DefaultNsTolerance
	}
	if allocTol <= 0 {
		allocTol = DefaultAllocTolerance
	}
	curBy := make(map[string]BenchResult, len(cur.Benches))
	for _, r := range cur.Benches {
		curBy[r.Name] = r
	}
	var regressions []string
	for _, b := range base.Benches {
		c, ok := curBy[b.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from current snapshot", b.Name))
			continue
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics { //lint:maporder-ok keys are sorted before use
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv := b.Metrics[k]
			cv, ok := c.Metrics[k]
			if !ok || math.Abs(cv-bv) > 1e-9*math.Max(1, math.Abs(bv)) {
				regressions = append(regressions,
					fmt.Sprintf("%s: deterministic metric %s drifted: baseline %g, current %g", b.Name, k, bv, cv))
			}
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*nsTol {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/op regressed beyond %.2gx: baseline %.0f, current %.0f", b.Name, nsTol, b.NsPerOp, c.NsPerOp))
		}
		if grew := c.AllocsPerOp - b.AllocsPerOp; grew > allocSlack &&
			float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*allocTol {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op regressed beyond %.2gx: baseline %d, current %d", b.Name, allocTol, b.AllocsPerOp, c.AllocsPerOp))
		}
	}
	return regressions
}
