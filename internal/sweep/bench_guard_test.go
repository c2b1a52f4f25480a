package sweep

import (
	"testing"
)

// benchBaseline is the committed snapshot the CI bench gate
// (`parsim sweep -bench -bench-baseline BENCH_pr34.json`) diffs against;
// benchTrajectory lists the earlier snapshots it replaced, newest first.
const benchBaseline = "../../BENCH_pr34.json"

var benchTrajectory = []string{"../../BENCH_pr30.json", "../../BENCH_pr28.json", "../../BENCH_pr27.json", "../../BENCH_pr24.json", "../../BENCH_pr22.json", "../../BENCH_pr7.json"}

func readSnapshot(t *testing.T, path string) map[string]BenchResult {
	t.Helper()
	s, err := ReadBenchSnapshot(path)
	if err != nil {
		t.Fatalf("read committed snapshot: %v", err)
	}
	byName := make(map[string]BenchResult, len(s.Benches))
	for _, b := range s.Benches {
		byName[b.Name] = b
	}
	if len(byName) != len(s.Benches) {
		t.Errorf("%s repeats a row name", path)
	}
	// The comparator must accept a snapshot against itself; anything else
	// means the gate would flag noise-free reruns.
	if regs := CompareBenchSnapshots(s, s, 0, 0); len(regs) != 0 {
		t.Errorf("%s: self-comparison reports regressions: %v", path, regs)
	}
	return byName
}

// TestBenchBaselineGateEntries guards the committed baseline without
// paying for a timed benchmark run. Its rows must be exactly the gate's
// rows: CompareBenchSnapshots only reports baseline rows missing from
// the current run, so a renamed or dropped row would otherwise silently
// shrink the gate. The deterministic modelTime of every commit body is
// re-derived from a single probe phase and compared exactly, so a
// hot-path edit cannot silently drift the priced execution; CI's full
// bench-gate step still covers ns/op and allocs/op.
func TestBenchBaselineGateEntries(t *testing.T) {
	base := readSnapshot(t, benchBaseline)
	rows := gateRows()
	for _, row := range rows {
		if _, ok := base[row.name]; !ok {
			t.Errorf("gate row %s missing from %s", row.name, benchBaseline)
		}
	}
	if len(base) != len(rows) {
		t.Errorf("%s has %d rows, the gate runs %d: regenerate it with `make bench`", benchBaseline, len(base), len(rows))
	}
	for _, cb := range CommitBenches {
		name := "Sweep/commit/" + cb.Name
		got, err := cb.ModelTime(cb.Points[0])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want, ok := base[name].Metrics["modelTime"]; !ok || got != want {
			t.Errorf("%s: deterministic modelTime drifted: snapshot %g (present %v), current %g", name, want, ok, got)
		}
	}
}

// TestBenchBaselineMatchesTrajectory pins the re-baselined snapshot to
// every one it replaced: each row carries the same deterministic model
// metrics as the matching trajectory row, so re-baselining moved only the
// host numbers.
func TestBenchBaselineMatchesTrajectory(t *testing.T) {
	base := readSnapshot(t, benchBaseline)
	for _, path := range benchTrajectory {
		old := readSnapshot(t, path)
		for name, b := range base { //lint:maporder-ok each row is checked independently
			o, ok := old[name]
			if !ok {
				t.Errorf("%s: row missing from %s", name, path)
				continue
			}
			if len(b.Metrics) != len(o.Metrics) {
				t.Errorf("%s: metrics %v, %s %v", name, b.Metrics, path, o.Metrics)
				continue
			}
			for k, v := range o.Metrics { //lint:maporder-ok each metric is checked independently
				if b.Metrics[k] != v {
					t.Errorf("%s: metric %s = %g, %s %g", name, k, b.Metrics[k], path, v)
				}
			}
		}
	}
}

// TestCommitBenchSteadyStateAllocs pins the allocations of every commit
// body's warm phase (see CommitBench.Warm, which the timed gate rows use
// too), which are exact: none, except p for gsm-gather, whose body makes
// one gsm.NewInfo per processor. The bodies cover the commit paths of
// the QSM's and the GSM's Apply, the packed store and the routing
// engine; an allocation added to any of them changes a count.
func TestCommitBenchSteadyStateAllocs(t *testing.T) {
	const p = 256
	extra := map[string]int{"gsm-gather": p}
	for _, cb := range CommitBenches {
		t.Run(cb.Name, func(t *testing.T) {
			_, phase, err := cb.Warm(p, cb.Points[0].K)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(100, phase)
			if want := float64(extra[cb.Name]); got != want {
				t.Errorf("warm phase allocates %.0f objects/run, want exactly %.0f", got, want)
			}
		})
	}
}
