package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/backend/proc"
	"repro/internal/sweep"
)

// The workloads read the golden tables relative to the repository root,
// and the proc workload re-executes this test binary as its workers.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smallPhase is the phase workload at a test-sized processor count.
func smallPhase() *phaseWork {
	w := newPhase(3)
	w.p = 1 << 8
	w.kinds = kindsFor(w.p)
	return w
}

// runRound sets w up once, runs one round and closes it.
func runRound(t *testing.T, w workload, tr *tracer, deep bool) *recorder {
	t.Helper()
	cpu := &cpuMeter{}
	if _, err := setUp(w, 1, tr, cpu, nil); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{cpu: cpu, tr: tr}
	w.round(rec, deep)
	w.close(tr)
	return rec
}

// A wrong expectation must show up as failed operations in an ordinary
// result, never as a crash; with the right expectation nothing fails.
func TestWrongExpectationCountsAsFailure(t *testing.T) {
	cases := []struct {
		name       string
		make       func(wrong bool) workload
		wantFailed int
	}{
		{"phase model time", func(wrong bool) workload {
			w := smallPhase()
			if wrong {
				w.kinds[0].modelTime++ // qsm_batch: five of the eight phases
			}
			return w
		}, 5},
		{"tables golden bytes", func(wrong bool) workload {
			w, err := newTables(goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			if wrong {
				w.want = "not the golden tables"
			}
			return w
		}, len(sweep.PresetTables(goldenSeed))},
		{"chaos totals", func(wrong bool) workload {
			w := newChaos(goldenSeed)
			if wrong {
				w.want = &chaosTotals{Verified: 1}
			}
			return w
		}, len(newChaos(goldenSeed).cells)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if rec := runRound(t, c.make(false), nil, false); rec.failed() != 0 {
				t.Fatalf("right expectation: %d of %d operations failed: %v", rec.failed(), len(rec.ops), rec.notes)
			}
			rec := runRound(t, c.make(true), nil, false)
			if rec.failed() != c.wantFailed || len(rec.notes) == 0 {
				t.Fatalf("wrong expectation: %d of %d operations failed (want %d), notes %v",
					rec.failed(), len(rec.ops), c.wantFailed, rec.notes)
			}
		})
	}
}

// A deep proc round checks every merge against the reference merger and
// records the transport spans and computed bytes of every phase kind.
func TestTracedProcRound(t *testing.T) {
	w := newProc(5)
	w.p = 1 << 8
	w.kinds = kindsFor(w.p)
	tr := newTracer()
	tr.workload = "proc"
	rec := runRound(t, w, tr, true)
	if rec.failed() != 0 {
		t.Fatalf("%d operations failed: %v", rec.failed(), rec.notes)
	}
	for _, k := range w.kinds {
		for _, name := range []string{".merge", ".ref_merge"} {
			if len(tr.durations("proc", "proc."+k.name+name)) == 0 {
				t.Errorf("no proc.%s%s span", k.name, name)
			}
		}
		if len(tr.samples["proc."+k.name+".bytes_per_phase"]) == 0 {
			t.Errorf("no computed bytes for %s", k.name)
		}
	}
	if got := sum(tr.samples["proc.respawns"]); got != 0 {
		t.Errorf("respawns = %v, want 0", got)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(cfg.Workloads), len(specs))
	}
	for i, w := range cfg.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// The calibration loop must do the same work every time and allocate
// nothing, so that neither the program nor its heap can move it: its tree
// walk visits every inserted key once, in order.
func TestCalibrationLoop(t *testing.T) {
	cpu := &cpuMeter{}
	if n := testing.AllocsPerRun(3, func() { calibrate(cpu) }); n != 0 {
		t.Errorf("calibration loop allocates %v times per run", n)
	}
	var keys []int
	calT.walk(func(k int) { keys = append(keys, k) })
	if len(keys) != calNodes {
		t.Fatalf("walk visited %d keys, want %d", len(keys), calNodes)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatalf("walk out of order at %d: %d after %d", i, keys[i], keys[i-1])
		}
	}
}

// Bad arguments exit non-zero and print no result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "phase", "--trace", "2"},
		{"--workload", "phase", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
