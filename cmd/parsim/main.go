// Command parsim runs one algorithm on one simulated machine and prints
// the per-phase cost table — the microscope view of the cost model.
//
// Usage:
//
//	parsim -model sqsm -alg parity -n 1024 -p 1024 -g 4 [-L 16] [-fanin 2] [-seed 7] [-v] [-events]
//	parsim chaos [-model qsm -alg parity -specs "crash@2:p1,mem~0.05" -degraded] [-seeds 2] [-n 48]
//	parsim sweep -models qsm,bsp -algs parity,bsp-parity -n 256..4096:*2 -seeds 1..3 -o out.jsonl
//	parsim sweep -preset tables|chaos|smoke [-o out.jsonl] [-resume]
//	parsim sweep -bench [-bench-o BENCH_pr24.json] [-bench-baseline BENCH_pr24.json]
//	parsim worker -socket PATH -rank R [-beat D]   (internal)
//
// The worker subcommand is internal plumbing: it is the explicit
// spelling of the proc backend's re-exec protocol, so a coordinator
// configured with Bin/Args can target any binary that dispatches here.
// It is listed in the usage output, marked internal, and not part of the
// user-facing surface.
//
// The chaos subcommand runs seeded fault-injection scenarios (one with
// -model, the full sweep without) and fails only on robustness-invariant
// violations; see internal/chaos and DESIGN.md §6. The sweep subcommand
// expands parameter grids into cells, records every cell — run or
// reason-coded skip — as JSONL/CSV, and resumes interrupted sweeps from
// the partial output; see internal/sweep and DESIGN.md §7.
//
// -v prints the per-phase cost table; -events additionally prints the
// model-generic observer event stream (every committed request in
// deterministic order), which is practical for small n only.
//
// The -model and -alg vocabularies are the internal/core registries;
// the flag usage strings are derived from the same tables the dispatcher
// reads, so the help text cannot drift from what actually runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/proc"
	"repro/internal/core"
)

func main() {
	// A proc-backend coordinator re-execs this binary as a worker with
	// the connection parameters in the environment; MaybeWorker hijacks
	// the process before any flag parsing when those are set.
	proc.MaybeWorker()
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// subcommand is one entry of the dispatch registry. The same table
// drives cliMain's dispatch and the top-level usage text, so the help
// output cannot drift from what actually runs. Internal subcommands
// (re-exec plumbing rather than user-facing surface) stay listed but
// are marked as such.
type subcommand struct {
	name     string
	synopsis string
	internal bool
	run      func(argv []string, stdout, stderr io.Writer) error
}

// subcommands is the dispatch registry; bare `parsim [flags]` (no
// subcommand word) is the single-run mode handled by cliMain's default.
var subcommands = []subcommand{
	{"chaos", "seeded fault-injection scenarios, single or full matrix", false,
		func(argv []string, stdout, _ io.Writer) error { return runChaos(argv, stdout) }},
	{"sweep", "parameter-grid sweeps with resume and bench trajectories", false,
		func(argv []string, stdout, stderr io.Writer) error { return runSweep(argv, stdout, stderr) }},
	{"worker", "proc-backend worker process (internal: spawned by a coordinator over re-exec)", true,
		func(argv []string, stdout, _ io.Writer) error { return runWorker(argv, stdout) }},
}

// cliMain is the testable entry point: every subcommand returns its
// error here, and this is the single place that prefixes "parsim:" and
// picks the exit code.
func cliMain(argv []string, stdout, stderr io.Writer) int {
	var err error
	run := runSingleCmd
	if len(argv) > 0 {
		for i := range subcommands {
			if subcommands[i].name == argv[0] {
				run = subcommands[i].run
				argv = argv[1:]
				break
			}
		}
	}
	err = run(argv, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	default:
		fmt.Fprintln(stderr, "parsim:", err)
		return 1
	}
}

func runSingleCmd(argv []string, stdout, _ io.Writer) error {
	return runSingle(argv, stdout)
}

// usageHeader renders the registry-driven subcommand synopsis printed
// ahead of the single-run flag defaults by `parsim -h`.
func usageHeader(w io.Writer) {
	fmt.Fprintln(w, "Usage:")
	fmt.Fprintln(w, "  parsim [flags]         run one algorithm on one machine (flags below)")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  parsim %s [flags]  %s\n", sc.name, sc.synopsis)
	}
	fmt.Fprintln(w, "\nSingle-run flags:")
}

// parseFlags parses with ContinueOnError so flag errors flow through the
// single error path instead of the flag package's own os.Exit. -h/-help
// prints the defaults to stdout and reports flag.ErrHelp (a success).
func parseFlags(fs *flag.FlagSet, argv []string, stdout io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(argv)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(stdout)
		fs.Usage()
		return flag.ErrHelp
	}
	return err
}

// axisFloors are the smallest values the machine-axis flags accept, by
// flag name. A sweep.Cell reads a zero axis as "model default", so an
// explicit value below its floor must fail here, naming the flag, rather
// than silently run with the default (-p 0 does mean p = n).
var axisFloors = map[string]int64{
	"n": 1, "p": 0, "g": 1, "d": 1, "L": 1,
	"alpha": 1, "beta": 1, "gamma": 1, "fanin": 2,
}

// checkFloor rejects v when floors sets a larger minimum for flag name;
// flags floors does not name pass.
func checkFloor(floors map[string]int64, name string, v int64) error {
	if floor, ok := floors[name]; ok && v < floor {
		return fmt.Errorf("-%s: must be at least %d, got %d", name, floor, v)
	}
	return nil
}

// checkSetFlags applies the floors to every flag set on the command line;
// unset flags keep their (valid) defaults.
func checkSetFlags(fs *flag.FlagSet, floors map[string]int64) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if v, perr := strconv.ParseInt(f.Value.String(), 10, 64); err == nil && perr == nil {
			err = checkFloor(floors, f.Name, v)
		}
	})
	return err
}

// runWorker implements the `parsim worker` subcommand: the explicit
// spelling of what MaybeWorker does from the environment. A coordinator
// configured with Bin/Args can point at any binary that dispatches to
// this, so the transport is debuggable outside the re-exec path.
func runWorker(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("parsim worker", flag.ContinueOnError)
	socket := fs.String("socket", "", "coordinator Unix-domain socket path (required)")
	rank := fs.Int("rank", 0, "worker rank")
	beat := fs.Duration("beat", 25*time.Millisecond, "heartbeat period")
	if err := parseFlags(fs, argv, stdout); err != nil {
		return err
	}
	if *socket == "" {
		return errors.New("worker: -socket is required")
	}
	if *rank < 0 {
		return fmt.Errorf("worker: rank %d out of range", *rank)
	}
	return proc.RunWorker(*socket, *rank, *beat)
}

// runSingle is the default mode: one algorithm on one machine, through
// the same core.Runner.Execute path a grid cell and a Table 1 row take.
// A wrong answer is an error, like any other failed run.
func runSingle(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("parsim", flag.ContinueOnError)
	fs.Usage = func() {
		usageHeader(fs.Output())
		fs.PrintDefaults()
	}
	model := fs.String("model", "qsm", core.ModelUsage())
	alg := fs.String("alg", "parity", core.AlgUsage())
	n := fs.Int("n", 1024, "input size")
	p := fs.Int("p", 0, "processors (default n)")
	g := fs.Int64("g", 4, "gap parameter")
	d := fs.Int64("d", 2, "QSM(g,d) memory gap")
	l := fs.Int64("L", 16, "BSP latency")
	alpha := fs.Int64("alpha", 2, "GSM α")
	beta := fs.Int64("beta", 2, "GSM β")
	gamma := fs.Int64("gamma", 1, "GSM γ")
	fanin := fs.Int("fanin", 2, "tree fan-in")
	seed := fs.Int64("seed", 7, "workload seed")
	backendName := fs.String("backend", "", backend.Usage())
	procWorkers := fs.Int("proc-workers", 0, "proc backend worker processes (default 1)")
	verbose := fs.Bool("v", false, "print the per-phase table")
	events := fs.Bool("events", false, "print the structured per-phase event stream (small n only)")
	if err := parseFlags(fs, argv, stdout); err != nil {
		return err
	}
	if err := checkSetFlags(fs, axisFloors); err != nil {
		return err
	}

	bk, err := backend.New(backend.Config{Name: *backendName, ProcWorkers: *procWorkers})
	if err != nil {
		return err
	}
	if bk != nil {
		defer bk.Close()
	}
	out, err := core.Runner{Backend: bk, Events: *events}.Execute(core.Point{
		Model: *model, Alg: *alg, N: *n, P: *p,
		G: *g, D: *d, L: *l, Alpha: *alpha, Beta: *beta, Gamma: *gamma,
		Fanin: *fanin, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, out.Summary)
	fmt.Fprintln(stdout, out.Report.String())
	if *verbose {
		fmt.Fprint(stdout, out.Report.Table())
	}
	if *events {
		fmt.Fprintln(stdout, out.Stream())
	}
	return nil
}
