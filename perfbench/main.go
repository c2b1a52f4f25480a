// Command perfbench is the repository benchmark. It runs one named
// workload at a given seed, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	perfbench --workload tables|phase|chaos|proc --seed N --seconds S --trace 0|1
//
// Run it from the root of a repro checkout, where it reads the golden
// tables; perfbench/run.sh builds it and does so. README.md in this
// directory maps each metric to the layer and workload it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend/proc"
)

const (
	// maxProcs is the Go scheduler's processor count in the benchmark and,
	// through the environment, in the proc workers. Every workload runs
	// its engine at Workers=1, so a second P would only host the runtime's
	// idle-time work: idle GC mark workers and spinning threads, whose CPU
	// time depends on timing rather than on the work.
	maxProcs = engineWorkers
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median, and the stamp lists every repetition. Only the first
	// repetition starts from a cold process.
	setupReps = 3
	// holdoutSeed is kept out of tuning: no change to the benchmark or the
	// program may be tuned against runs at this seed, on any workload.
	holdoutSeed = 4099
	// spanDir receives the span file of each traced run.
	spanDir = ".bench_build/spans"
)

// workload is one benchmark workload. A run sets it up, runs a fixed
// number of rounds, and closes it.
type workload interface {
	// setup builds everything before the first timed operation; tr, when
	// set, receives spans for its layer calls.
	setup(tr *tracer) error
	// round runs one fixed unit of work, timing each operation into r.
	// deep adds the traced run's layer decomposition: direct calls into
	// the layer below, timed beside the operations.
	round(r *recorder, deep bool)
	// close releases what setup built; it is safe after a failed setup.
	close(tr *tracer)
}

// spec describes a workload to the runner.
type spec struct {
	name string
	// nominalRound is one round's duration on the reference box (2 vCPU
	// x86-64, Go 1.24). --seconds S runs S/nominalRound rounds, so the
	// work of a run is fixed by S and never by the program's speed.
	nominalRound time.Duration
	minRounds    int
	// engineWorkers and procWorkers are stamped on the result.
	engineWorkers, procWorkers int
	make                       func(seed int64) (workload, error)
}

var specs = []spec{
	{"tables", 650 * time.Millisecond, 3, engineWorkers, 0, func(s int64) (workload, error) { return newTables(s) }},
	{"phase", 340 * time.Millisecond, 4, engineWorkers, 0, func(s int64) (workload, error) { return newPhase(s), nil }},
	{"chaos", 1000 * time.Millisecond, 3, engineWorkers, 0, func(s int64) (workload, error) { return newChaos(s), nil }},
	{"proc", 360 * time.Millisecond, 4, engineWorkers, procWorkers, func(s int64) (workload, error) { return newProc(s), nil }},
}

func (sp spec) rounds(seconds int) int {
	n := int(math.Round(float64(time.Duration(seconds)*time.Second) / float64(sp.nominalRound)))
	return max(sp.minRounds, n)
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp describes the run; it is printed on the line before the result.
type stamp struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Holdout       bool    `json:"holdout_seed"`
	Trace         int     `json:"trace"`
	Seconds       int     `json:"seconds"`
	Rounds        int     `json:"rounds"`
	Ops           int     `json:"ops"`
	TailPct       float64 `json:"op_tail_percentile"`
	FailedFrac    float64 `json:"failed_frac"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go"`
	EngineWorkers int     `json:"engine_workers"`
	ProcWorkers   int     `json:"proc_workers"`
	Commit        string  `json:"commit"`
	// SpeedFactor is what the run's CPU times were multiplied by to give
	// the gated time metrics (calibrate.go); CalLoopMS is the median
	// calibration loop time it came from.
	SpeedFactor float64 `json:"speed_factor,omitempty"`
	CalLoopMS   float64 `json:"cal_loop_ms,omitempty"`
	// SetupEach lists the CPU time of every set-up, as measured; setup_s
	// is their median times the speed factor.
	SetupEach []float64 `json:"setup_s_each,omitempty"`
	// The wall-clock figures of an untraced run, for reference: the gated
	// time metrics are CPU time (see cpu.go).
	WallS      float64 `json:"wall_s,omitempty"`
	OpWallP50  float64 `json:"op_wall_p50_ms,omitempty"`
	OpWallTail float64 `json:"op_wall_tail_ms,omitempty"`
}

func main() {
	proc.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: tables | phase | chaos | proc")
	seed := fl.Int64("seed", goldenSeed, "workload seed")
	seconds := fl.Int("seconds", 10, "run length on the reference box; fixes the number of rounds")
	trace := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	commit := fl.String("commit", "unknown", "commit of the code under test, for the stamp")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload tables|phase|chaos|proc --seed N --seconds S>=1 --trace 0|1")
		return 2
	}
	if _, err := os.Stat(goldenPath); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the root of a repro checkout: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(maxProcs)
	os.Setenv("GOMAXPROCS", strconv.Itoa(maxProcs)) // inherited by proc workers

	st := stamp{
		Workload: sp.name, Seed: *seed, Holdout: *seed == holdoutSeed,
		Trace: *trace, Seconds: *seconds, Rounds: sp.rounds(*seconds),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		EngineWorkers: sp.engineWorkers, ProcWorkers: sp.procWorkers,
		Commit: *commit,
	}
	var rec *recorder
	var metrics map[string]metric
	var err error
	if *trace == 0 {
		rec, metrics, err = measure(sp, *seed, *seconds, &st)
	} else {
		rec, metrics, err = traced(sp, *seed, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rec.notes {
		fmt.Fprintln(stderr, "perfbench: FAIL", n)
	}
	res := result{Attempted: len(rec.ops), Failed: rec.failed(), Metrics: metrics}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	st.Ops = len(rec.ops)
	st.TailPct = tailPercentile(len(rec.ops))
	if res.Attempted > 0 {
		st.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	sb, _ := json.Marshal(map[string]stamp{"stamp": st})
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", sb, rb)
	return 0
}

// setUp runs w's set-up reps times, closing the previous one in between,
// and returns each repetition's process-tree CPU time in seconds. speed,
// when set, samples the host's speed before each repetition.
func setUp(w workload, reps int, tr *tracer, cpu *cpuMeter, speed *speedLog) ([]float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.close(tr)
		}
		runtime.GC()
		cpu.refresh()
		speed.sample()
		s := tr.start("setup")
		c0 := cpu.now()
		err := w.setup(tr)
		cpu.refresh() // the proc workers exist from here on
		secs = append(secs, (cpu.now() - c0).Seconds())
		tr.stop(s)
		if err != nil {
			w.close(tr)
			return nil, err
		}
	}
	runtime.GC()
	return secs, nil
}

// measure is an untraced run: the end-to-end metrics, scaled to the
// reference box's speed, plus the raw figures the stamp reports.
func measure(sp spec, seed int64, seconds int, st *stamp) (*recorder, map[string]metric, error) {
	w, err := sp.make(seed)
	if err != nil {
		return nil, nil, err
	}
	cpu := &cpuMeter{}
	speed := &speedLog{cpu: cpu}
	setups, err := setUp(w, setupReps, nil, cpu, speed)
	if err != nil {
		return nil, nil, err
	}
	rec := &recorder{cpu: cpu}
	n := sp.rounds(seconds)
	var cpuS, wallS float64
	for i := 0; i < n; i++ {
		speed.sample()
		c0, t0 := cpu.now(), time.Now()
		w.round(rec, false)
		cpuS += (cpu.now() - c0).Seconds()
		wallS += time.Since(t0).Seconds()
	}
	w.close(nil)
	q := tailPercentile(len(rec.ops))
	f := speed.factor()
	st.WallS, st.OpWallP50, st.OpWallTail = wallS, median(rec.wall), percentile(rec.wall, q)
	st.SpeedFactor, st.CalLoopMS, st.SetupEach = f, median(speed.loops)*1e3, setups
	m, err := collect(endToEnd, map[string]float64{
		"cpu_s":          cpuS * f,
		"setup_s":        median(setups) * f,
		"op_cpu_p50_ms":  roundMedian(rec.ops, n) * f,
		"op_cpu_tail_ms": percentile(rec.ops, q) * f,
		"max_rss_mb":     maxRSSMB(),
	})
	return rec, m, err
}

// traced is a traced run. The named workload is set up as often as in an
// untraced run and then runs a third of its rounds untraced alternating
// with a third traced by spans only — the pair gives the tracing overhead
// and the runtime counters — and a third deep, with the layer
// decomposition. Every other workload then runs one set-up and one deep
// round, so every per-layer metric is printed on every workload.
func traced(sp spec, seed int64, seconds int, stderr io.Writer) (*recorder, map[string]metric, error) {
	tr := newTracer()
	cpu := &cpuMeter{}
	rec := &recorder{cpu: cpu}
	vals := map[string]float64{}
	order := []spec{sp}
	for _, o := range specs {
		if o.name != sp.name {
			order = append(order, o)
		}
	}
	for _, o := range order {
		w, err := o.make(seed)
		if err != nil {
			return nil, nil, err
		}
		tr.workload, tr.run = o.name, 0
		home := o.name == sp.name
		reps, deepRounds := 1, 1
		if home {
			reps, deepRounds = setupReps, max(1, sp.rounds(seconds)/3)
		}
		if _, err := setUp(w, reps, tr, cpu, nil); err != nil {
			return nil, nil, err
		}
		if home {
			var plain, spanned, plainWall []float64
			var rt rtSample
			plainOps := 0
			for i := 0; i < max(2, sp.rounds(seconds)/3); i++ {
				tr.run++
				rec.tr = nil
				ops, r0 := len(rec.ops), readRuntime()
				c0, t0 := cpu.now(), time.Now()
				w.round(rec, false)
				plain = append(plain, (cpu.now() - c0).Seconds())
				plainWall = append(plainWall, time.Since(t0).Seconds())
				rt = rt.add(readRuntime().sub(r0))
				plainOps += len(rec.ops) - ops

				tr.run++
				rec.tr = tr
				c0 = cpu.now()
				w.round(rec, false)
				spanned = append(spanned, (cpu.now() - c0).Seconds())
			}
			vals["trace.overhead_frac"] = median(spanned)/median(plain) - 1
			vals["runtime.allocs_per_op"] = rt.allocs / float64(plainOps)
			vals["runtime.alloc_mb_per_op"] = rt.bytes / 1e6 / float64(plainOps)
			// The runtime's GC CPU estimate over the CPU time the rounds had.
			vals["runtime.gc_cpu_frac"] = rt.gcCPU / (sum(plainWall) * float64(runtime.GOMAXPROCS(0)))
		}
		rec.tr = tr
		for i := 0; i < deepRounds; i++ {
			tr.run++
			w.round(rec, true)
		}
		w.close(tr)
	}
	for k, v := range layerValues(tr) {
		vals[k] = v
	}
	if err := writeSpans(tr, sp.name, seed, stderr); err != nil {
		return nil, nil, err
	}
	m, err := collect(perLayer, vals)
	return rec, m, err
}

// writeSpans writes every span of a traced run as JSON lines and prints
// each layer's self time to stderr.
func writeSpans(tr *tracer, name string, seed int64, stderr io.Writer) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	fmt.Fprintf(stderr, "%-8s %-36s %8s %12s %12s\n", "workload", "span", "count", "total_ms", "self_ms")
	for _, r := range tr.selfTimes() {
		fmt.Fprintf(stderr, "%-8s %-36s %8d %12.3f %12.3f\n", r.Workload, r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
	return nil
}

// maxRSSMB is the peak resident set of this process in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
