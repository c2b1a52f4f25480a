package sweep

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

func TestParseInt64s(t *testing.T) {
	cases := []struct {
		spec string
		want []int64
	}{
		{"256,512,1024", []int64{256, 512, 1024}},
		{"256..2048:*2", []int64{256, 512, 1024, 2048}},
		{"1..9:+2", []int64{1, 3, 5, 7, 9}},
		{"1..4", []int64{1, 2, 3, 4}},
		{"7", []int64{7}},
		{"3..20:*3", []int64{3, 9}}, // end not hit: stop below it
		{"2, 4 , 8", []int64{2, 4, 8}},
		// Steps past end would overflow int64: the count stops first.
		{"4611686018427387904..9223372036854775807:*2", []int64{4611686018427387904}},
		{"9223372036854775800..9223372036854775807:+5", []int64{9223372036854775800, 9223372036854775805}},
	}
	for _, c := range cases {
		got, err := ParseInt64s(c.spec)
		if err != nil {
			t.Errorf("ParseInt64s(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseInt64s(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestParseInt64sErrors(t *testing.T) {
	for _, spec := range []string{
		"", "x", "4..2", "1..8:*1", "1..8:+0", "1..8:-2", "0..8:*2", "1..8:2",
	} {
		if _, err := ParseInt64s(spec); err == nil {
			t.Errorf("ParseInt64s(%q): expected error", spec)
		}
	}
}

// TestParseInt64sCap pins the per-spec value cap: a spec is counted
// before it is expanded, so a huge range fails fast instead of
// allocating its values.
func TestParseInt64sCap(t *testing.T) {
	if vals, err := ParseInt64s("1..65536"); err != nil || len(vals) != maxSpecValues {
		t.Fatalf("ParseInt64s(1..65536) = %d values, %v; want %d values", len(vals), err, maxSpecValues)
	}
	for _, spec := range []string{
		"1..65537", "1..65536,7", "0,1..65536", "1..2147483647:+1",
		"-9223372036854775808..9223372036854775807",
	} {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		_, err := ParseInt64s(spec)
		runtime.ReadMemStats(&m)
		if err == nil || !strings.Contains(err.Error(), "65536") {
			t.Errorf("ParseInt64s(%q) error = %v, want the 65536-value cap", spec, err)
		}
		// At most a few copies of a capped spec, never the range itself.
		if grew := m.TotalAlloc - before; grew > 16*8*maxSpecValues {
			t.Errorf("ParseInt64s(%q) allocated %d bytes before failing", spec, grew)
		}
	}
}

// TestGridCountSaturates checks that Count cannot overflow: five axes of
// 2^16 values have 2^80 cells, which reads as math.MaxInt.
func TestGridCountSaturates(t *testing.T) {
	wide := make([]int64, maxSpecValues)
	g := Grid{Models: []string{"qsm"}, Algs: []string{"or"}, Ns: []int{8}, Seeds: wide,
		Gs: wide, Ds: wide, Ls: wide, Alphas: wide}
	if got := g.Count(); got != math.MaxInt {
		t.Fatalf("Count() = %d, want math.MaxInt", got)
	}
	g.Algs = nil
	if got := g.Count(); got != 0 {
		t.Fatalf("Count() with no algorithms = %d, want 0", got)
	}
}

func TestCellKeyCanonicalizesDefaults(t *testing.T) {
	implicit := Cell{Model: "qsm", Alg: "parity", N: 64, Seed: 1}
	explicit := Cell{Model: "qsm", Alg: "parity", N: 64, P: 64, G: 4, D: 2, L: 16,
		Alpha: 2, Beta: 2, Gamma: 1, Fanin: 2, Seed: 1}
	if implicit.Key() != explicit.Key() {
		t.Errorf("default spelling changes the key: %q vs %q", implicit.Key(), explicit.Key())
	}
}

func TestCheckReasonCodes(t *testing.T) {
	cases := []struct {
		name string
		cell Cell
		want string
	}{
		{"unknown model", Cell{Model: "pram", Alg: "parity", N: 64, Seed: 1}, ReasonUnknownModel},
		{"unknown alg", Cell{Model: "qsm", Alg: "sort", N: 64, Seed: 1}, ReasonUnknownAlg},
		{"family mismatch", Cell{Model: "qsm", Alg: "bsp-parity", N: 64, Seed: 1}, ReasonInvalidCombo},
		{"gsm alg on bsp", Cell{Model: "bsp", Alg: "gsm-or", N: 64, Seed: 1}, ReasonInvalidCombo},
		{"too large", Cell{Model: "qsm", Alg: "parity", N: 1 << 20, Seed: 1}, ReasonTooLarge},
		{"bad n", Cell{Model: "qsm", Alg: "parity", N: -1, Seed: 1}, ReasonInvalidParams},
		{"faults on qsmgd", Cell{Model: "qsmgd", Alg: "parity", N: 64, Seed: 1, Faults: "mem~0.1"}, ReasonInvalidCombo},
		{"faults on prefix", Cell{Model: "qsm", Alg: "prefix", N: 64, Seed: 1, Faults: "mem~0.1"}, ReasonUnsupportedAlg},
		{"lac faults off shared", Cell{Model: "bsp", Alg: "lac", N: 64, Seed: 1, Faults: "mem~0.1"}, ReasonUnsupportedAlg},
		{"bad fault spec", Cell{Model: "qsm", Alg: "parity", N: 64, Seed: 1, Faults: "zap~0.1"}, ReasonInvalidParams},
		// The chaos runner builds a fixed machine shape per model, so a
		// fault cell must not claim a non-default machine axis.
		{"fault p", Cell{Model: "qsm", Alg: "parity", N: 64, P: 8, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault g", Cell{Model: "qsm", Alg: "parity", N: 64, G: 2, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault d", Cell{Model: "qsm", Alg: "parity", N: 64, D: 4, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault L", Cell{Model: "bsp", Alg: "parity", N: 64, L: 64, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault alpha", Cell{Model: "gsm", Alg: "or", N: 64, Alpha: 4, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault beta", Cell{Model: "gsm", Alg: "or", N: 64, Beta: 4, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault gamma", Cell{Model: "gsm", Alg: "or", N: 64, Gamma: 2, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault fanin", Cell{Model: "qsm", Alg: "or", N: 64, Fanin: 4, Seed: 1, Faults: "mem@1"}, ReasonInvalidParams},
		{"fault explicit defaults", Cell{Model: "bsp", Alg: "parity", N: 64, P: 64, G: 4, L: 16, Seed: 1, Faults: "mem@1"}, ""},
		{"unknown exp", Cell{Exp: "T9.Nope", N: 64, Seed: 1}, ReasonUnknownExp},
		{"runnable", Cell{Model: "qsm", Alg: "parity", N: 64, Seed: 1}, ""},
		{"runnable fault", Cell{Model: "qsm", Alg: "lac-dart", N: 64, Seed: 1, Faults: "mem~0.1"}, ""},
		{"runnable exp", Cell{Exp: "T2.Parity.det", N: 256, Seed: 1}, ""},
	}
	for _, c := range cases {
		if got := Check(c.cell, 0); got != c.want {
			t.Errorf("%s: Check = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRunCellRecordsSkips(t *testing.T) {
	rec := RunCell(Cell{Model: "qsm", Alg: "bsp-parity", N: 64, Seed: 1}, RunConfig{})
	if rec.Status != StatusSkipped || rec.Reason != ReasonInvalidCombo {
		t.Fatalf("got status %q reason %q, want skipped/invalid-combo", rec.Status, rec.Reason)
	}
	if rec.Key == "" {
		t.Fatal("skip record has no key")
	}
}

func TestRunCellMachine(t *testing.T) {
	rec := RunCell(Cell{Model: "qsm", Alg: "parity", N: 64, Seed: 1}, RunConfig{})
	if rec.Status != StatusOK || !rec.Verified {
		t.Fatalf("got status %q (err %q), want ok", rec.Status, rec.Error)
	}
	if rec.Time <= 0 || rec.Phases <= 0 || rec.Work <= 0 {
		t.Fatalf("missing cost numbers: time=%v phases=%d work=%d", rec.Time, rec.Phases, rec.Work)
	}
}

func TestRunCellFault(t *testing.T) {
	// A strict crash must end diagnosed (poisoned machine, explained).
	rec := RunCell(Cell{Model: "qsm", Alg: "parity", N: 48, Seed: 1, Faults: "crash@1"}, RunConfig{})
	if rec.Status != StatusDiagnosed {
		t.Fatalf("strict crash: got status %q (err %q), want diagnosed", rec.Status, rec.Error)
	}
	if rec.Injected == 0 {
		t.Fatal("strict crash: no faults recorded as injected")
	}
	// The same crash masked in degraded mode must verify.
	rec = RunCell(Cell{Model: "qsm", Alg: "parity", N: 48, Seed: 1,
		Faults: "crash@2:p1", Degraded: true}, RunConfig{})
	if rec.Status != StatusOK {
		t.Fatalf("masked crash: got status %q (err %q), want ok", rec.Status, rec.Error)
	}
	if rec.MaskedProcs == 0 {
		t.Fatal("masked crash: no procs recorded as masked")
	}
}

func TestGridExpansionOrderStable(t *testing.T) {
	g := Grid{
		Models: []string{"qsm", "bsp"},
		Algs:   []string{"parity"},
		Ns:     []int{32, 64},
		Seeds:  []int64{1, 2},
	}
	cells := g.Cells()
	if len(cells) != g.Count() || len(cells) != 8 {
		t.Fatalf("got %d cells (Count %d), want 8", len(cells), g.Count())
	}
	// Seeds innermost, then n, then model outermost.
	wantFirst := Cell{Model: "qsm", Alg: "parity", N: 32, Seed: 1}
	if cells[0] != wantFirst {
		t.Fatalf("first cell = %+v", cells[0])
	}
	if cells[1].Seed != 2 || cells[2].N != 64 || cells[4].Model != "bsp" {
		t.Fatalf("unexpected nesting order: %+v", cells[:5])
	}
}

// testCells is a small mixed grid: runnable machine cells, a skip, and a
// fault cell — enough to exercise every record shape in the writer.
func testCells() []Cell {
	cells := Grid{
		Models: []string{"qsm", "sqsm"},
		Algs:   []string{"parity", "bsp-or"}, // bsp-or → invalid-combo skips
		Ns:     []int{32},
		Seeds:  []int64{1, 2},
	}.Cells()
	return append(cells,
		Cell{Model: "qsm", Alg: "or", N: 32, Seed: 1, Faults: "mem~0.2"},
		Cell{Exp: "T2.Parity.det", N: 256, Seed: 1998},
	)
}

func TestRunResumeByteEqual(t *testing.T) {
	cells := testCells()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	part := filepath.Join(dir, "part.jsonl")

	if _, err := Run(cells, Options{JSONL: full}); err != nil {
		t.Fatal(err)
	}
	s, err := Run(cells, Options{JSONL: part, MaxCells: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Interrupted || s.Ran != 3 {
		t.Fatalf("interrupt: ran %d, interrupted %v", s.Ran, s.Interrupted)
	}
	s, err = Run(cells, Options{JSONL: part, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Resumed != 3 {
		t.Fatalf("resume: resumed %d cells, want 3", s.Resumed)
	}
	want, _ := os.ReadFile(full)
	got, _ := os.ReadFile(part)
	if string(want) != string(got) {
		t.Fatalf("resumed output differs from uninterrupted run:\n%s\n--- vs ---\n%s", got, want)
	}
}

func TestRunResumeDropsTornTail(t *testing.T) {
	cells := testCells()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	part := filepath.Join(dir, "part.jsonl")
	if _, err := Run(cells, Options{JSONL: full}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cells, Options{JSONL: part, MaxCells: 4}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: append half a record.
	f, err := os.OpenFile(part, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"qsm/parity/torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := Run(cells, Options{JSONL: part, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Resumed != 4 {
		t.Fatalf("resumed %d cells, want 4 (torn tail dropped)", s.Resumed)
	}
	want, _ := os.ReadFile(full)
	got, _ := os.ReadFile(part)
	if string(want) != string(got) {
		t.Fatal("resumed-after-torn-write output differs from uninterrupted run")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	s, err := Run(testCells(), Options{CSV: csvPath})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != len(s.Records)+1 {
		t.Fatalf("CSV has %d lines, want %d records + header", len(lines), len(s.Records))
	}
	if !strings.HasPrefix(lines[0], "key,exp,model,alg,n,") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
}

func TestSummaryCounts(t *testing.T) {
	s, err := Run(testCells(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 runnable machine cells + 4 invalid-combo skips + 1 fault + 1 exp.
	if s.Total != 10 || s.Skipped != 4 || s.Failed != 0 {
		t.Fatalf("summary: %+v", s)
	}
	if s.SkipReasons[ReasonInvalidCombo] != 4 {
		t.Fatalf("skip reasons: %v", s.SkipReasons)
	}
	if got := s.OK + s.Diagnosed; got != 6 {
		t.Fatalf("ok+diagnosed = %d, want 6", got)
	}
	if !strings.Contains(s.String(), "invalid-combo=4") {
		t.Fatalf("summary text: %s", s)
	}
}

func TestPresetTablesMatchesRenderAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 sweep")
	}
	want, err := core.RenderAll(1998)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Run(PresetTables(1998), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RenderTablesFromRecords(s.Records)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("sweep-assembled tables differ from RenderAll")
	}
}

func TestPresetTablesRoundTripsThroughJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 sweep")
	}
	want, err := core.RenderAll(1998)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tables.jsonl")
	if _, err := Run(PresetTables(1998), Options{JSONL: path}); err != nil {
		t.Fatal(err)
	}
	// Re-read from disk: float round-tripping through JSON must be exact.
	recs, _, err := scanJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RenderTablesFromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("tables rendered from persisted JSONL differ from RenderAll")
	}
}

func TestPresetChaosMatchesScenarios(t *testing.T) {
	seeds := []int64{1, 2}
	scs, err := chaos.Scenarios(seeds, 48)
	if err != nil {
		t.Fatal(err)
	}
	cells := PresetChaos(seeds, 48, false)
	if len(cells) != len(scs) {
		t.Fatalf("preset has %d cells, chaos.Scenarios %d", len(cells), len(scs))
	}
	for i, sc := range scs {
		c := cells[i]
		if c.Model != sc.Model || c.Alg != sc.Alg || c.N != sc.N ||
			c.Seed != sc.Seed || c.Degraded != sc.Degraded {
			t.Fatalf("cell %d = %+v, scenario %+v", i, c, sc)
		}
		if Check(c, 0) != "" {
			t.Fatalf("chaos preset cell %d not runnable: %s", i, Check(c, 0))
		}
	}
}

func TestCompareBenchSnapshots(t *testing.T) {
	base := &BenchSnapshot{Benches: []BenchResult{
		{Name: "a", NsPerOp: 100, BytesPerOp: 1 << 20, AllocsPerOp: 10, Metrics: map[string]float64{"modelTime": 42}},
		{Name: "b", NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
	}}
	same := &BenchSnapshot{Benches: []BenchResult{
		{Name: "a", NsPerOp: 250, BytesPerOp: 5 << 18, AllocsPerOp: 12, Metrics: map[string]float64{"modelTime": 42}},
		{Name: "b", NsPerOp: 90, BytesPerOp: 4000, AllocsPerOp: 4},
	}}
	if regs := CompareBenchSnapshots(base, same, 0, 0); len(regs) != 0 {
		t.Fatalf("within tolerance yet flagged: %v", regs)
	}
	bad := &BenchSnapshot{Benches: []BenchResult{
		{Name: "a", NsPerOp: 500, BytesPerOp: 2 << 20, AllocsPerOp: 100, Metrics: map[string]float64{"modelTime": 43}},
	}}
	regs := CompareBenchSnapshots(base, bad, 0, 0)
	if len(regs) != 5 { // metric drift, ns/op, allocs/op, B/op, missing "b"
		t.Fatalf("got %d regressions, want 5: %v", len(regs), regs)
	}
	for _, want := range []string{"drifted", "ns/op", "allocs/op", "B/op", "missing"} {
		found := false
		for _, r := range regs {
			if strings.Contains(r, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no regression mentions %q: %v", want, regs)
		}
	}
}

// TestFastestOf pins how `make bench` merges its runs: each row is the
// run of it with the lowest ns/op, whole, and runs whose rows or model
// metrics differ are refused.
func TestFastestOf(t *testing.T) {
	run := func(aNs, bNs float64, bAllocs int64, modelTime float64) *BenchSnapshot {
		return &BenchSnapshot{Label: "t", Benches: []BenchResult{
			{Name: "a", Iters: int(aNs), NsPerOp: aNs, Metrics: map[string]float64{"modelTime": modelTime}},
			{Name: "b", Iters: int(bNs), NsPerOp: bNs, AllocsPerOp: bAllocs},
		}}
	}
	got, err := FastestOf([]*BenchSnapshot{run(300, 100, 7, 42), run(200, 400, 9, 42), run(250, 150, 8, 42)})
	if err != nil {
		t.Fatal(err)
	}
	if want := (&BenchSnapshot{Label: "t", Benches: []BenchResult{
		{Name: "a", Iters: 200, NsPerOp: 200, Metrics: map[string]float64{"modelTime": 42}},
		{Name: "b", Iters: 100, NsPerOp: 100, AllocsPerOp: 7},
	}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("fastest of three = %+v, want %+v", got, want)
	}
	short := run(1, 1, 0, 42)
	short.Benches = short.Benches[:1]
	for name, runs := range map[string][]*BenchSnapshot{ //lint:maporder-ok each case is checked independently
		"none":         nil,
		"metric drift": {run(300, 100, 7, 42), run(200, 100, 7, 43)},
		"missing row":  {run(300, 100, 7, 42), short},
		"renamed row":  {run(300, 100, 7, 42), {Benches: []BenchResult{{Name: "a", Metrics: map[string]float64{"modelTime": 42}}, {Name: "c"}}}},
	} {
		if _, err := FastestOf(runs); err == nil {
			t.Errorf("%s: merged without an error", name)
		}
	}
}

func TestBenchSnapshotFileRoundTrip(t *testing.T) {
	s := &BenchSnapshot{Label: "t", Benches: []BenchResult{
		{Name: "Sweep/x", Iters: 3, NsPerOp: 1.5, AllocsPerOp: 2,
			Metrics: map[string]float64{"modelTime": 48}},
	}}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip: %+v vs %+v", s, got)
	}
	if regs := CompareBenchSnapshots(s, got, 0, 0); len(regs) != 0 {
		t.Fatalf("snapshot differs from itself: %v", regs)
	}
	if !strings.Contains(got.Benchstat(), "BenchmarkSweep/x 3 1.5 ns/op") {
		t.Fatalf("benchstat text: %s", got.Benchstat())
	}
}
