package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/sweep"
)

// runChaos implements the `parsim chaos` subcommand. With -model it runs
// one scenario and prints its fault report; without, it runs the standard
// sweep (seeds × fault mixes × all five machine constructors) through the
// generic sweep runner and prints the aggregate summary. Either way a
// robustness-invariant violation — panic, hang, silent corruption,
// undiagnosable error — is the only failure; fault-poisoned runs that
// diagnose themselves are expected sweep outcomes.
func runChaos(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("parsim chaos", flag.ContinueOnError)
	model := fs.String("model", "", "run one scenario on this model ("+strings.Join(chaos.Models, " | ")+"); empty sweeps all")
	alg := fs.String("alg", "parity", "single-scenario algorithm: parity | or | lac")
	specStr := fs.String("specs", "mem~0.05", `single-scenario fault specs, e.g. "crash@2:p1,mem~0.05"`)
	n := fs.Int("n", 48, "input size")
	seed := fs.Int64("seed", 1, "scenario seed (and first sweep seed)")
	seeds := fs.Int("seeds", 2, "number of consecutive sweep seeds")
	degraded := fs.Bool("degraded", false, "mask crashes and re-partition over survivors (shared-memory models)")
	workers := fs.Int("workers", 0, "machine Workers setting: validated (must be ≥ 0), no effect on how a machine runs")
	deadline := fs.Duration("deadline", chaos.DefaultDeadline, "per-run watchdog deadline")
	backendName := fs.String("backend", "", backend.Usage())
	procWorkers := fs.Int("proc-workers", 0, "proc backend worker processes (default 1)")
	verbose := fs.Bool("v", false, "print the single scenario's observer event stream")
	if err := parseFlags(fs, argv, stdout); err != nil {
		return err
	}
	if err := checkSetFlags(fs, map[string]int64{"n": 1, "seeds": 1, "proc-workers": 0}); err != nil {
		return err
	}
	if !backend.Valid(*backendName) {
		return fmt.Errorf("unknown backend %q (want %s)", *backendName, strings.Join(backend.Names(), " | "))
	}

	// SIGINT/SIGTERM cancel the run (or sweep) between scenarios and tear
	// down the scenario in flight; the partial summary still prints.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *model != "" {
		// Validate up front: chaos.Run reports an unknown model as a
		// diagnosed outcome (a machine that failed to construct), but a
		// flag typo is a config error and must exit non-zero.
		if !contains(chaos.Models, *model) {
			return fmt.Errorf("unknown model %q (want %s)", *model, strings.Join(chaos.Models, " | "))
		}
		if !contains(chaos.AlgsFor(*model), *alg) {
			return fmt.Errorf("unknown algorithm %q for model %q (want %s)",
				*alg, *model, strings.Join(chaos.AlgsFor(*model), " | "))
		}
		specs, err := repro.ParseFaultSpecs(*specStr)
		if err != nil {
			return err
		}
		sc := chaos.Scenario{
			Model: *model, Alg: *alg, N: *n, Seed: *seed,
			Specs: specs, Degraded: *degraded,
			Backend: *backendName, ProcWorkers: *procWorkers,
		}
		// The scenario is checked as the sweep cell it runs as, so a size
		// the sweep records as too-large fails here instead of running
		// the machine out of memory.
		if reason := sweep.Check(scenarioCell(sc, *specStr), 0); reason != "" {
			return fmt.Errorf("-n: %d is %s for a %s scenario (n·p over %d)", *n, reason, *model, sweep.DefaultMaxCost)
		}
		o := chaos.Run(ctx, sc, *deadline, *workers)
		fmt.Fprintln(stdout, sc.Name())
		switch {
		case o.Cancelled:
			fmt.Fprintln(stdout, "interrupted: run cancelled before completion")
		case o.Verified:
			fmt.Fprintln(stdout, "verified: answer matches the host-side oracle")
		case o.Wrong:
			fmt.Fprintf(stdout, "wrong: %v\n", o.Err)
		case o.Err != nil:
			fmt.Fprintf(stdout, "diagnosed: %v\n", o.Err)
		}
		if o.Report != nil {
			fmt.Fprintln(stdout, o.Report)
		}
		if *verbose {
			if stream := o.Stream(); stream != "" {
				fmt.Fprintln(stdout, stream)
			}
		}
		if err := o.Invariant(); err != nil {
			return fmt.Errorf("robustness invariant violated: %w", err)
		}
		return nil
	}

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}
	cells := sweep.PresetChaos(seedList, *n, *degraded)
	for i := range cells {
		cells[i].Backend = *backendName
		cells[i].ProcWorkers = *procWorkers
	}
	s, err := sweep.Run(cells, sweep.Options{Workers: *workers, Deadline: *deadline, Ctx: ctx})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, s.ChaosString())
	if s.Interrupted && ctx.Err() != nil {
		fmt.Fprintf(stdout, "interrupted: %d of %d runs not finished\n",
			s.Total-(s.OK+s.Diagnosed+s.Skipped+s.Failed), s.Total)
	}
	if s.Failed > 0 {
		return fmt.Errorf("robustness invariant violated in %d of %d runs",
			s.Failed, s.OK+s.Diagnosed+s.Failed)
	}
	return nil
}

// scenarioCell is the sweep cell a single scenario runs as: its fault
// cell, or, when it has no fault specs, the machine cell of its registry
// point.
func scenarioCell(sc chaos.Scenario, specs string) sweep.Cell {
	if strings.TrimSpace(specs) != "" {
		return sweep.Cell{Model: sc.Model, Alg: sc.Alg, N: sc.N, Seed: sc.Seed, Faults: specs, Degraded: sc.Degraded}
	}
	pt := sc.Point()
	return sweep.Cell{
		Model: pt.Model, Alg: pt.Alg, N: pt.N, P: pt.P, G: pt.G, L: pt.L,
		Alpha: pt.Alpha, Beta: pt.Beta, Gamma: pt.Gamma, Fanin: pt.Fanin, Seed: pt.Seed,
	}
}

// contains reports whether list has item.
func contains(list []string, item string) bool {
	for _, s := range list {
		if s == item {
			return true
		}
	}
	return false
}
