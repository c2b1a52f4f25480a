package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/sweep"
)

// runSweep implements the `parsim sweep` subcommand: grid expansion,
// presets, JSONL/CSV persistence with resume, and the bench-snapshot
// mode. Everything runs through internal/sweep; this function only
// parses flags and picks the output rendering.
func runSweep(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("parsim sweep", flag.ContinueOnError)
	preset := fs.String("preset", "", "named grid: tables | chaos | smoke (replaces the axis flags)")
	models := fs.String("models", "qsm", "comma-separated models: "+sweep.ModelUsage())
	algs := fs.String("algs", "parity", "comma-separated algorithms: "+sweep.AlgUsage())
	ns := fs.String("n", "1024", `input-size grid spec (lists and ranges, e.g. "256..8192:*2")`)
	ps := fs.String("p", "0", "processor grid spec (0 = n)")
	gs := fs.String("g", "4", "gap grid spec")
	ds := fs.String("d", "2", "QSM(g,d) memory-gap grid spec")
	ls := fs.String("L", "16", "BSP latency grid spec")
	alphas := fs.String("alpha", "2", "GSM α grid spec")
	betas := fs.String("beta", "2", "GSM β grid spec")
	gammas := fs.String("gamma", "1", "GSM γ grid spec")
	fanins := fs.String("fanin", "2", "tree fan-in grid spec")
	seeds := fs.String("seeds", "7", "seed grid spec")
	faults := fs.String("faults", "", `";"-separated fault mixes (internal/fault grammar); empty = fault-free`)
	degraded := fs.Bool("degraded", false, "run fault cells in degraded (crash-masking) mode")
	seed := fs.Int64("seed", 1998, "preset seed: workload seed for -preset tables, first seed for -preset chaos")
	chaosSeeds := fs.Int("chaos-seeds", 2, "number of consecutive seeds for -preset chaos")
	chaosN := fs.Int("chaos-n", 48, "input size for -preset chaos")
	out := fs.String("o", "", "JSONL output path (one record per cell, flushed per cell)")
	csvPath := fs.String("csv", "", "CSV output path (rebuilt atomically at the end)")
	resume := fs.Bool("resume", false, "resume from the partial JSONL output at -o, skipping completed cells")
	maxCells := fs.Int("max-cells", 0, "stop after running this many new cells (0 = all); resume later with -resume")
	maxCost := fs.Int64("max-cost", 0, "n·p footprint ceiling; larger cells skip as too-large (0 = default)")
	workers := fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	deadline := fs.Duration("deadline", chaos.DefaultDeadline, "fault-cell watchdog deadline")
	progress := fs.Bool("progress", false, "print a per-cell progress line to stderr")
	render := fs.Bool("render", false, "render Table 1 from the experiment records (implied by -preset tables)")
	bench := fs.Bool("bench", false, "measure the bench snapshot instead of running a grid")
	benchLabel := fs.String("bench-label", "pr22", "bench snapshot label")
	benchFilter := fs.String("bench-filter", "", "only benches whose name contains this substring")
	benchOut := fs.String("bench-o", "", "write the bench snapshot JSON here (e.g. BENCH_pr22.json)")
	benchText := fs.String("bench-text", "", "write the benchstat-format text here")
	benchBaseline := fs.String("bench-baseline", "", "compare against this committed snapshot and fail on regressions")
	if err := parseFlags(fs, argv, stdout); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments after sweep flags: %q", fs.Args())
	}

	if *bench {
		return runBench(*benchLabel, *benchFilter, *benchOut, *benchText, *benchBaseline, stdout)
	}

	var cells []sweep.Cell
	switch *preset {
	case "tables":
		cells = sweep.PresetTables(*seed)
	case "chaos":
		seedList := make([]int64, *chaosSeeds)
		for i := range seedList {
			seedList[i] = *seed + int64(i)
		}
		cells = sweep.PresetChaos(seedList, *chaosN, *degraded)
	case "smoke":
		cells = sweep.PresetSmoke()
	case "":
		var err error
		cells, err = gridCells(*models, *algs, *ns, *ps, *gs, *ds, *ls,
			*alphas, *betas, *gammas, *fanins, *seeds, *faults, *degraded)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown preset %q (want tables | chaos | smoke)", *preset)
	}

	opt := sweep.Options{
		JSONL: *out, CSV: *csvPath, Resume: *resume,
		MaxCells: *maxCells, MaxCost: *maxCost,
		Workers: *workers, Deadline: *deadline,
	}
	if *progress {
		opt.Progress = stderr
	}
	s, err := sweep.Run(cells, opt)
	if err != nil {
		return err
	}

	switch {
	case *preset == "tables" || *render:
		if s.Interrupted {
			// A partial sweep cannot render complete tables; report the
			// state so the caller knows to resume.
			fmt.Fprintln(stdout, s)
			return nil
		}
		text, err := sweep.RenderTablesFromRecords(s.Records)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, text)
	case *preset == "chaos":
		fmt.Fprintln(stdout, s.ChaosString())
		if s.Failed > 0 {
			return fmt.Errorf("robustness invariant violated in %d of %d runs",
				s.Failed, s.OK+s.Diagnosed+s.Failed)
		}
	default:
		fmt.Fprintln(stdout, s)
		if s.Failed > 0 {
			return fmt.Errorf("%d of %d cells failed", s.Failed, s.Total)
		}
	}
	return nil
}

// gridCells expands the axis flags into the cell list.
func gridCells(models, algs, ns, ps, gs, ds, ls, alphas, betas, gammas, fanins, seeds, faults string, degraded bool) ([]sweep.Cell, error) {
	g := sweep.Grid{
		Models:   splitList(models),
		Algs:     splitList(algs),
		Degraded: degraded,
	}
	if faults != "" {
		g.Faults = strings.Split(faults, ";")
	}
	var err error
	intAxes := []struct {
		dst  *[]int
		spec string
		name string
	}{
		{&g.Ns, ns, "n"}, {&g.Ps, ps, "p"}, {&g.Fanins, fanins, "fanin"},
	}
	for _, ax := range intAxes {
		if *ax.dst, err = sweep.ParseInts(ax.spec); err != nil {
			return nil, fmt.Errorf("-%s: %w", ax.name, err)
		}
		for _, v := range *ax.dst {
			if err := checkAxis(ax.name, int64(v)); err != nil {
				return nil, err
			}
		}
	}
	int64Axes := []struct {
		dst  *[]int64
		spec string
		name string
	}{
		{&g.Gs, gs, "g"}, {&g.Ds, ds, "d"}, {&g.Ls, ls, "L"},
		{&g.Alphas, alphas, "alpha"}, {&g.Betas, betas, "beta"},
		{&g.Gammas, gammas, "gamma"}, {&g.Seeds, seeds, "seeds"},
	}
	for _, ax := range int64Axes {
		if *ax.dst, err = sweep.ParseInt64s(ax.spec); err != nil {
			return nil, fmt.Errorf("-%s: %w", ax.name, err)
		}
		for _, v := range *ax.dst {
			if err := checkAxis(ax.name, v); err != nil {
				return nil, err
			}
		}
	}
	if len(g.Models) == 0 || len(g.Algs) == 0 {
		return nil, fmt.Errorf("empty -models or -algs")
	}
	if n := g.Count(); n > sweep.MaxGridCells {
		return nil, fmt.Errorf("-models × -algs × -faults × axis specs: grid of %d cells exceeds the %d-cell cap; split the sweep", n, sweep.MaxGridCells)
	}
	return g.Cells(), nil
}

// splitList splits a comma list, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// runBench measures the bench snapshot, writes the requested outputs and
// applies the regression gate against the committed baseline.
func runBench(label, filter, outPath, textPath, baseline string, stdout io.Writer) error {
	snap, err := sweep.RunBenchSnapshot(label, filter)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := snap.WriteFile(outPath); err != nil {
			return err
		}
	}
	if textPath != "" {
		if err := os.WriteFile(textPath, []byte(snap.Benchstat()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprint(stdout, snap.Benchstat())
	if baseline == "" {
		return nil
	}
	base, err := sweep.ReadBenchSnapshot(baseline)
	if err != nil {
		return err
	}
	if regs := sweep.CompareBenchSnapshots(base, snap, 0, 0); len(regs) > 0 {
		return fmt.Errorf("bench regressions vs %s:\n  %s", baseline, strings.Join(regs, "\n  "))
	}
	fmt.Fprintf(stdout, "bench gate: no regressions vs %s\n", baseline)
	return nil
}
