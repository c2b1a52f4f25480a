package sweep

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options configures one sweep invocation.
type Options struct {
	// JSONL and CSV are the output paths ("" = skip that output).
	JSONL, CSV string
	// Resume rescans JSONL and skips cells whose records already exist.
	Resume bool
	// MaxCells stops the sweep after appending this many new records
	// (0 = run the whole grid). The cut is at a record boundary, exactly
	// the state an interrupt leaves behind, so tests and smoke runs use
	// it to exercise the resume path deterministically.
	MaxCells int
	// MaxCost is the n·p footprint ceiling (0 = DefaultMaxCost).
	MaxCost int64
	// Workers is handed to every machine's Config, which validates it
	// (it must be ≥ 0); it has no effect on how a machine runs.
	Workers int
	// Deadline is the fault-cell watchdog (0 = chaos.DefaultDeadline).
	Deadline time.Duration
	// Progress, when non-nil, receives a carriage-return progress line
	// per cell (count-based only — no wall-clock, no rates).
	Progress io.Writer
	// Ctx stops the sweep between cells and tears down the cell in
	// flight (nil = context.Background()). Cancelled cells are not
	// persisted, so a resumed sweep re-runs them.
	Ctx context.Context
}

// Summary aggregates one sweep invocation.
type Summary struct {
	// Total is the grid size; Ran counts cells executed this invocation;
	// Resumed counts cells satisfied from the partial output.
	Total, Ran, Resumed int
	// OK, Diagnosed, Skipped and Failed partition the graded cells.
	OK, Diagnosed, Skipped, Failed int
	// SkipReasons counts skips by reason code.
	SkipReasons map[string]int
	// Injected, Recovered and MaskedProcs total the fault accounting.
	Injected, Recovered, MaskedProcs int
	// Failures lists failed cells as "key: error".
	Failures []string
	// Records is the full persisted record list in output order.
	Records []Record
	// Interrupted reports that MaxCells stopped the sweep early.
	Interrupted bool
}

// Run executes the cells in grid order, skipping any whose key already
// appears in the resumed output. Cells run one after another, each
// machine on the calling goroutine (Workers is validated and has no
// effect on how a machine runs), and sequential execution keeps the
// record order (and therefore the JSONL byte stream) deterministic,
// which is what makes interrupted-and-resumed sweeps byte-comparable to
// uninterrupted ones.
func Run(cells []Cell, opt Options) (*Summary, error) {
	w, prior, err := newWriter(opt.JSONL, opt.CSV, opt.Resume)
	if err != nil {
		return nil, err
	}
	s := &Summary{Total: len(cells), SkipReasons: make(map[string]int)}
	rc := RunConfig{MaxCost: opt.MaxCost, Workers: opt.Workers, Deadline: opt.Deadline, Ctx: opt.Ctx}
	appended := 0
	for i, c := range cells {
		var rec Record
		if pr, ok := prior[c.Key()]; ok {
			rec = pr
			s.Resumed++
		} else {
			if opt.MaxCells > 0 && appended >= opt.MaxCells {
				s.Interrupted = true
				break
			}
			if opt.Ctx != nil && opt.Ctx.Err() != nil {
				s.Interrupted = true
				break
			}
			rec = RunCell(c, rc)
			if rec.Status == StatusSkipped && rec.Reason == ReasonCancelled {
				// The interrupt landed mid-cell: the cell is not a result
				// and must not be persisted — a resumed sweep re-runs it.
				s.Interrupted = true
				break
			}
			if werr := w.append(rec); werr != nil {
				w.close()
				return nil, werr
			}
			appended++
			s.Ran++
		}
		s.tally(rec)
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "\rsweep: %d/%d cells — %d ok, %d diagnosed, %d skipped, %d failed",
				i+1, s.Total, s.OK, s.Diagnosed, s.Skipped, s.Failed)
		}
	}
	if opt.Progress != nil {
		fmt.Fprintln(opt.Progress)
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	s.Records = w.records
	return s, nil
}

// tally folds one record into the summary counters.
func (s *Summary) tally(r Record) {
	switch r.Status {
	case StatusOK:
		s.OK++
	case StatusDiagnosed:
		s.Diagnosed++
	case StatusSkipped:
		s.Skipped++
		s.SkipReasons[r.Reason]++
	default:
		s.Failed++
		s.Failures = append(s.Failures, fmt.Sprintf("%s: %s", r.Key, r.Error))
	}
	s.Injected += r.Injected
	s.Recovered += r.Recovered
	s.MaskedProcs += r.MaskedProcs
}

// String renders the sweep summary: one headline, the skip reasons in
// sorted order, and every failure.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d cells — %d ok, %d diagnosed, %d skipped, %d failed",
		s.Total, s.OK, s.Diagnosed, s.Skipped, s.Failed)
	if s.Resumed > 0 {
		fmt.Fprintf(&b, " (%d resumed)", s.Resumed)
	}
	if s.Interrupted {
		b.WriteString(" [stopped at max-cells]")
	}
	if len(s.SkipReasons) > 0 {
		reasons := make([]string, 0, len(s.SkipReasons))
		for r := range s.SkipReasons { //lint:maporder-ok reasons are sorted before use
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		b.WriteString("\n  skipped:")
		for _, r := range reasons {
			fmt.Fprintf(&b, " %s=%d", r, s.SkipReasons[r])
		}
	}
	for _, f := range s.Failures {
		b.WriteString("\n  FAIL ")
		b.WriteString(f)
	}
	return b.String()
}

// ChaosString renders the summary as the `parsim chaos` report: one
// totals line, then one line per invariant violation.
func (s *Summary) ChaosString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos sweep: %d runs, %d verified, %d diagnosable errors, %d faults injected, %d recovered, %d procs masked",
		s.OK+s.Diagnosed+s.Failed, s.OK, s.Diagnosed, s.Injected, s.Recovered, s.MaskedProcs)
	for _, f := range s.Failures {
		b.WriteString("\n  FAIL ")
		b.WriteString(f)
	}
	return b.String()
}
