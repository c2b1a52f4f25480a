package sweep

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gsm"
	"repro/internal/qsm"
)

// The bench snapshot freezes two kinds of numbers for the hot paths the
// top-level bench_test.go exercises:
//
//   - deterministic model metrics (measured cost, bound, ratio, model
//     time per committed phase) — these must reproduce exactly, so the
//     comparison gate treats any drift as a determinism regression;
//   - host performance (ns/op, B/op, allocs/op) — ns/op is noisy, so
//     the gate fails it only on a blowup; allocation counts and volume
//     are steadier and fail beyond a 25% growth.
//
// The committed snapshot (BENCH_pr30.json) is the baseline CI diffs
// against; regenerate it with `make bench` (GOMAXPROCS=2: allocs/op
// depend on it) after intentional performance or cost-model changes. It
// keeps the fastest of three runs per row (FastestOf), while the gate
// measures once.

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
	// DefaultAllocTolerance fails allocs/op, and B/op, beyond a 25%
	// growth (with a small absolute slack for near-zero baselines).
	DefaultAllocTolerance = 1.25
	// allocSlack and bytesSlack are the absolute allocs/op and B/op
	// growth ignored regardless of the relative tolerance.
	allocSlack = 16
	bytesSlack = 4 << 10
)

// benchExperiments are the representative Table 1 rows the gate times,
// one per sub-table, at their Table1BenchN sizes.
var benchExperiments = []string{"T1.Parity.det", "T2.Parity.det", "T3.Parity.det", "T4.LAC.qsm"}

// Table1BenchN is the input size a Table 1 row is benchmarked at, by the
// root BenchmarkTable1 and the gate alike: 2^11 for the QSM parity rows,
// whose gadget tree is the slowest to simulate, and 2^12 for the rest.
func Table1BenchN(id string) int {
	if strings.HasPrefix(id, "T1.Parity.") {
		return 1 << 11
	}
	return 1 << 12
}

// CommitPoint is one size a commit body is benchmarked at: p processors,
// each submitting a k-cell block (k = 0 for the per-cell bodies).
type CommitPoint struct{ P, K int }

func (pt CommitPoint) String() string {
	if pt.K == 0 {
		return fmt.Sprintf("p=%d", pt.P)
	}
	return fmt.Sprintf("p=%d/k=%d", pt.P, pt.K)
}

// CommitBench is one phase-commit bench body. Bodies are deliberately
// trivial, so the time per phase tracks the commit stage (contention
// counting, winner resolution, message routing), across contention
// profiles and request paths.
type CommitBench struct {
	// Name is the gate row suffix (Sweep/commit/<Name>) and the
	// BenchmarkPhaseCommit sub-benchmark.
	Name string
	// Points are the sizes BenchmarkPhaseCommit sweeps; the gate times
	// only the first.
	Points []CommitPoint
	// Build returns a fresh machine at one point and a closure that
	// commits one phase of the body on it.
	Build func(p, k int) (engine.Machine, func(), error)
}

// CommitBenches is the registry of phase-commit bench bodies. Each
// builder makes its body once, outside the phase closure: a body literal
// that captures p, built inside it, would allocate on every phase.
var CommitBenches = []CommitBench{
	// κ = 1: every processor touches its own cells.
	{"qsm-low", commitPs(1<<14, 1<<17, 1<<20), func(p, _ int) (engine.Machine, func(), error) {
		return qsmCommit(p, 2*p, func(c *qsm.Ctx) {
			v := c.Read(c.Proc())
			c.Write(p+c.Proc(), v+1)
		})
	}},
	// κ = Θ(p): p processors funnel into 64 cells.
	{"qsm-high", commitPs(1<<14, 1<<17, 1<<20), func(p, _ int) (engine.Machine, func(), error) {
		return qsmCommit(p, 64, func(c *qsm.Ctx) {
			c.Write(c.Proc()%64, int64(c.Proc()))
		})
	}},
	// κ = 8: one level of a fan-in-8 write tree, the common algorithmic shape.
	{"qsm-tree8", commitPs(1<<14, 1<<17, 1<<20), func(p, _ int) (engine.Machine, func(), error) {
		return qsmCommit(p, p+p/8+1, func(c *qsm.Ctx) {
			v := c.Read(c.Proc())
			c.Write(p+c.Proc()/8, v|1)
		})
	}},
	// The columnar submission path: each processor reads a k-cell block
	// and fills a k-cell block, so one phase carries 2·p·k requests (~21M
	// at the largest point) through the struct-of-arrays columns.
	{"qsm-batch", []CommitPoint{{1 << 14, 16}, {1 << 17, 16}, {1 << 17, 80}}, func(p, k int) (engine.Machine, func(), error) {
		return qsmCommit(p, 2*p*k, func(c *qsm.Ctx) {
			pr := c.Proc()
			c.ReadBlock(pr*k, k)
			c.WriteFill(p*k+pr*k, k, int64(pr))
		})
	}},
	// The bit-packed memory: one 64-bit ReadWord (64 charged cell reads)
	// plus a summary-bit write per processor.
	{"bool-word", commitPs(1<<14, 1<<17, 1<<18), func(p, _ int) (engine.Machine, func(), error) {
		body := func(c *qsm.BoolCtx) {
			w := c.ReadWord(c.Proc()*64, 64)
			c.Write(64*p+c.Proc(), w != 0)
		}
		m, err := qsm.NewBool(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 65 * p})
		return m, func() { m.Phase(body) }, err
	}},
	// A BSP 4-relation: every component sends to its next four neighbours.
	{"bsp-shift", commitPs(1<<14, 1<<17), func(p, _ int) (engine.Machine, func(), error) {
		body := func(c *bsp.Ctx) {
			for k := 0; k < 4; k++ {
				c.Send((c.Comp()+k+1)%p, int64(k), int64(c.Comp()))
			}
		}
		m, err := bsp.New(bsp.Config{P: p, G: 2, L: 8, N: p, PrivCells: 1})
		return m, func() { m.Superstep(body) }, err
	}},
	// A GSM gather: groups of four processors merge into one cell.
	{"gsm-gather", commitPs(1 << 14), func(p, _ int) (engine.Machine, func(), error) {
		body := func(c *gsm.Ctx) {
			c.Write(p+c.Proc()/4, gsm.NewInfo(int64(c.Proc())))
		}
		m, err := gsm.New(gsm.Config{P: p, Alpha: 4, Beta: 4, Gamma: 1, N: p, Cells: p + p/4 + 1})
		return m, func() { m.Phase(body) }, err
	}},
}

// commitPs returns the per-cell points (k = 0) at the given p.
func commitPs(ps ...int) []CommitPoint {
	pts := make([]CommitPoint, len(ps))
	for i, p := range ps {
		pts[i].P = p
	}
	return pts
}

// qsmCommit builds the QSM machine the shared-memory bodies run on.
func qsmCommit(p, cells int, body func(c *qsm.Ctx)) (engine.Machine, func(), error) {
	m, err := qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: cells})
	return m, func() { m.Phase(body) }, err
}

// ModelTime commits one phase of the body on a fresh machine at pt and
// returns the model time it charges.
func (cb CommitBench) ModelTime(pt CommitPoint) (float64, error) {
	m, phase, err := cb.Build(pt.P, pt.K)
	if err != nil {
		return 0, err
	}
	phase()
	if m.Err() != nil {
		return 0, m.Err()
	}
	return float64(m.Report().TotalTime), nil
}

// Warm builds a fresh machine at (p, k) and commits two phases of the
// body on it, which grow it to its steady state: the first grows the
// lanes and the commit scratch, the second the other half of a BSP
// machine's ping-ponged inboxes. The phase it returns runs warm.
func (cb CommitBench) Warm(p, k int) (engine.Machine, func(), error) {
	m, phase, err := cb.Build(p, k)
	if err != nil {
		return nil, nil, err
	}
	phase()
	phase()
	return m, phase, m.Err()
}

// Time benchmarks the body at pt on a warm machine (see Warm), so the
// timed loop and its allocs/op measure steady-state phases, not warm-up.
func (cb CommitBench) Time(b *testing.B, pt CommitPoint) {
	m, phase, err := cb.Warm(pt.P, pt.K)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phase()
	}
	b.StopTimer()
	if m.Err() != nil {
		b.Fatal(m.Err())
	}
}

// gateRow is one snapshot row: its name and a run that returns the
// deterministic metrics and the timed result.
type gateRow struct {
	name string
	run  func() (map[string]float64, testing.BenchmarkResult, error)
}

// gateRows lists the snapshot rows in order: the representative Table 1
// cells, each commit body at its first point, and the per-cell harness.
func gateRows() []gateRow {
	var rows []gateRow
	for _, id := range benchExperiments {
		n := Table1BenchN(id)
		rows = append(rows, gateRow{fmt.Sprintf("Sweep/exp/%s/n=%d", id, n),
			func() (map[string]float64, testing.BenchmarkResult, error) { return benchExperimentCell(id, n) }})
	}
	for _, cb := range CommitBenches {
		rows = append(rows, gateRow{"Sweep/commit/" + cb.Name,
			func() (map[string]float64, testing.BenchmarkResult, error) {
				pt := cb.Points[0]
				mt, err := cb.ModelTime(pt)
				metrics := map[string]float64{"modelTime": mt}
				return metrics, testing.Benchmark(func(b *testing.B) { cb.Time(b, pt) }), err
			}})
	}
	return append(rows, gateRow{"Sweep/cell/qsm-parity", benchRunCell})
}

// RunBenchSnapshot measures every bench whose name contains filter
// ("" = all) and returns the labelled snapshot. It uses
// testing.Benchmark, so each bench self-calibrates its iteration count;
// the deterministic metrics are computed once, outside the timed loops.
func RunBenchSnapshot(label, filter string) (*BenchSnapshot, error) {
	s := &BenchSnapshot{Label: label}
	for _, row := range gateRows() {
		if !strings.Contains(row.name, filter) {
			continue
		}
		metrics, r, err := row.run()
		if err != nil {
			return nil, err
		}
		// testing.Benchmark returns a zeroed result when the bench fails.
		if r.N <= 0 {
			return nil, fmt.Errorf("sweep: benchmark %s failed", row.name)
		}
		s.Benches = append(s.Benches, BenchResult{
			Name:        row.name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Metrics:     metrics,
		})
	}
	return s, nil
}

// FastestOf merges snapshots of the same rows, taken one after another,
// into one: each row is the run of it with the lowest ns/op, host
// numbers and all, so a baseline written from it records the code's
// speed and not a slow moment of a shared host. The runs must list the
// same rows in the same order with exactly the same deterministic
// metrics; anything else is an error. The label is the first run's.
func FastestOf(runs []*BenchSnapshot) (*BenchSnapshot, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("sweep: no bench snapshot to merge")
	}
	out := &BenchSnapshot{Label: runs[0].Label, Benches: slices.Clone(runs[0].Benches)}
	for i, r := range runs[1:] {
		if len(r.Benches) != len(out.Benches) {
			return nil, fmt.Errorf("sweep: bench run %d measured %d rows, run 1 %d", i+2, len(r.Benches), len(out.Benches))
		}
		for k, b := range r.Benches {
			best := &out.Benches[k]
			if b.Name != best.Name || !maps.Equal(b.Metrics, best.Metrics) {
				return nil, fmt.Errorf("sweep: bench run %d row %s (metrics %v) does not match run 1 row %s (metrics %v)",
					i+2, b.Name, b.Metrics, best.Name, best.Metrics)
			}
			if b.NsPerOp < best.NsPerOp {
				*best = b
			}
		}
	}
	return out, nil
}

// benchExperimentCell times one experiment RunPoint call and records the
// row's deterministic quantities at seed 1.
func benchExperimentCell(id string, n int) (map[string]float64, testing.BenchmarkResult, error) {
	e := core.ExperimentByID(id)
	if e == nil {
		return nil, testing.BenchmarkResult{}, fmt.Errorf("sweep: unknown experiment %q", id)
	}
	row, err := e.RunPoint(n, 1)
	if err != nil {
		return nil, testing.BenchmarkResult{}, err
	}
	metrics := map[string]float64{
		e.Quantity: row.Measured,
		"bound":    row.Bound,
		"ratio":    row.Ratio,
	}
	return metrics, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.RunPoint(n, 1); err != nil {
				b.Fatal(err)
			}
		}
	}), nil
}

// benchRunCell times the whole per-cell harness path (registry dispatch,
// machine construction, algorithm, oracle, record assembly).
func benchRunCell() (map[string]float64, testing.BenchmarkResult, error) {
	cell := Cell{Model: "qsm", Alg: "parity", N: 1 << 10, Seed: 1}
	rec := RunCell(cell, RunConfig{})
	if rec.Status != StatusOK {
		return nil, testing.BenchmarkResult{}, fmt.Errorf("sweep: bench cell %s: %s %s", rec.Key, rec.Status, rec.Error)
	}
	metrics := map[string]float64{
		"modelTime": rec.Time,
		"phases":    float64(rec.Phases),
	}
	return metrics, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := RunCell(cell, RunConfig{}); out.Status != StatusOK {
				b.Fatalf("cell %s: %s", out.Key, out.Status)
			}
		}
	}), nil
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
// exactly; ns/op compares against nsTol, and allocs/op and B/op against
// allocTol (0 = defaults). New benches absent from base pass — commit a fresh
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
		if grew := c.BytesPerOp - b.BytesPerOp; grew > bytesSlack &&
			float64(c.BytesPerOp) > float64(b.BytesPerOp)*allocTol {
			regressions = append(regressions,
				fmt.Sprintf("%s: B/op regressed beyond %.2gx: baseline %d, current %d", b.Name, allocTol, b.BytesPerOp, c.BytesPerOp))
		}
	}
	return regressions
}
