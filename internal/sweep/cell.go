// Package sweep is the mega-sweep harness: it expands declarative
// (model × algorithm × n × p × g × d × L × α/β/γ × seed × fault-mix)
// grids into cells, prunes infeasible cells with reason codes instead of
// dropping them, runs the rest through one shared runner, and persists
// every cell — run or skipped — as a JSONL/CSV record. Interrupted sweeps
// resume from the partial JSONL output byte-identically.
//
// The harness has three cell kinds, all carried by the same Cell struct:
//
//   - experiment cells (Exp != ""): one (Table 1 row, n) point of the
//     registered core experiments — the cmd/tables grid;
//   - machine cells (Exp == "", Faults == ""): one algorithm on one
//     machine with explicit parameters — the cmd/parsim grid;
//   - fault cells (Faults != ""): one chaos scenario — the parsim chaos
//     grid.
//
// Model time comes exclusively from the cost formulas; records carry no
// wall-clock fields, which is what makes interrupted-and-resumed output
// byte-comparable to an uninterrupted run.
package sweep

import (
	"fmt"
	"strings"
)

// Skip reason codes. Infeasible cells are recorded with one of these
// rather than silently dropped, so a sweep's coverage is auditable from
// its output alone.
const (
	// ReasonUnknownModel: the model name is not in the registry.
	ReasonUnknownModel = "unknown-model"
	// ReasonUnknownAlg: the algorithm name is not in the registry.
	ReasonUnknownAlg = "unknown-alg"
	// ReasonInvalidCombo: model and algorithm are individually known but
	// belong to different machine families (e.g. bsp-parity on qsm), or
	// the fault runner has no harness for the model.
	ReasonInvalidCombo = "invalid-combo"
	// ReasonTooLarge: the cell's simulation footprint (n·p) exceeds the
	// sweep's configured ceiling.
	ReasonTooLarge = "too-large"
	// ReasonUnsupportedAlg: the algorithm exists but has no runner in the
	// requested mode (e.g. prefix under fault injection).
	ReasonUnsupportedAlg = "unsupported-alg"
	// ReasonInvalidParams: a parameter violates a model precondition the
	// grid can state up front (non-positive n, p or g, fan-in < 2, a
	// malformed fault-spec string, a non-default machine axis on a fault
	// cell, …).
	ReasonInvalidParams = "invalid-params"
	// ReasonUnknownExp: an experiment cell names an unregistered ID.
	ReasonUnknownExp = "unknown-exp"
	// ReasonCancelled: the run was cut short by context cancellation
	// (SIGINT). Cancelled cells are never persisted — a resumed sweep
	// re-runs them.
	ReasonCancelled = "cancelled"
)

// Cell is one grid point. The zero value of an axis means "model
// default"; Key() canonicalizes defaults so a cell's identity is stable
// across spelling variants.
type Cell struct {
	// Exp selects an experiment cell: a core registry ID (e.g.
	// "T2.Parity.det") measured at N with Seed.
	Exp string `json:"exp,omitempty"`
	// Model and Alg select a machine or fault cell.
	Model string `json:"model,omitempty"`
	Alg   string `json:"alg,omitempty"`
	// N is the input size; P the processor/component count (0 = n).
	N int `json:"n"`
	P int `json:"p,omitempty"`
	// G, D, L parameterize the QSM/QSM(g,d)/BSP cost rules.
	G int64 `json:"g,omitempty"`
	D int64 `json:"d,omitempty"`
	L int64 `json:"l,omitempty"`
	// Alpha, Beta, Gamma parameterize the GSM.
	Alpha int64 `json:"alpha,omitempty"`
	Beta  int64 `json:"beta,omitempty"`
	Gamma int64 `json:"gamma,omitempty"`
	// Fanin is the tree fan-in of the fan-in-parameterized algorithms.
	Fanin int `json:"fanin,omitempty"`
	// Seed drives the workload (and, for fault cells, the fault plan).
	Seed int64 `json:"seed"`
	// Faults is the declarative fault mix of a fault cell (internal/fault
	// spec grammar, e.g. "crash@2:p1,mem~0.05"); empty = fault-free.
	Faults string `json:"faults,omitempty"`
	// Degraded masks crashes and re-partitions over survivors (fault
	// cells on shared-memory models only).
	Degraded bool `json:"degraded,omitempty"`
	// Backend selects the commit-barrier backend ("", "inproc" = the
	// built-in merge; "proc" = worker subprocesses).
	Backend string `json:"backend,omitempty"`
	// ProcWorkers is the proc backend's worker-process count (0 = 1).
	ProcWorkers int `json:"procWorkers,omitempty"`
}

// withDefaults fills zero axes with the parsim defaults so the runner and
// Key always see explicit parameters.
func (c Cell) withDefaults() Cell {
	if c.P == 0 {
		c.P = c.N
	}
	if c.G == 0 {
		c.G = 4
	}
	if c.D == 0 {
		c.D = 2
	}
	if c.L == 0 {
		c.L = 16
	}
	if c.Alpha == 0 {
		c.Alpha = 2
	}
	if c.Beta == 0 {
		c.Beta = 2
	}
	if c.Gamma == 0 {
		c.Gamma = 1
	}
	if c.Fanin == 0 {
		c.Fanin = 2
	}
	return c
}

// Key is the cell's stable identity: the resume scanner skips cells whose
// key already appears in the partial output. Experiment cells ignore the
// machine axes; fault cells include the mix and mode.
func (c Cell) Key() string {
	if c.Exp != "" {
		return fmt.Sprintf("exp/%s/n%d/seed%d", c.Exp, c.N, c.Seed)
	}
	d := c.withDefaults()
	mode := "strict"
	if d.Degraded {
		mode = "degraded"
	}
	faults := d.Faults
	if faults == "" {
		faults = "none"
	}
	key := fmt.Sprintf("%s/%s/n%d/p%d/g%d/d%d/L%d/a%d/b%d/c%d/f%d/seed%d/%s/%s",
		d.Model, d.Alg, d.N, d.P, d.G, d.D, d.L,
		d.Alpha, d.Beta, d.Gamma, d.Fanin, d.Seed, faults, mode)
	// Non-default backends suffix the key; inproc cells keep the exact
	// historical key so resumes over old outputs stay byte-identical.
	if d.Backend != "" && d.Backend != "inproc" {
		pw := d.ProcWorkers
		if pw <= 0 {
			pw = 1
		}
		key += fmt.Sprintf("/%s%d", d.Backend, pw)
	}
	return key
}

// Status classifies a completed record.
type Status string

const (
	// StatusOK: the cell ran and the answer verified against the oracle.
	StatusOK Status = "ok"
	// StatusDiagnosed: a fault cell ended in a diagnosable machine error —
	// an expected outcome under injected faults, not a harness failure.
	StatusDiagnosed Status = "diagnosed"
	// StatusSkipped: the cell was pruned; Reason carries the code.
	StatusSkipped Status = "skipped"
	// StatusFailed: the cell ran and violated an invariant (wrong answer,
	// fault-free error, chaos robustness violation).
	StatusFailed Status = "failed"
)

// Record is the persisted result of one cell. Field order is the JSONL
// and CSV column order; keep it append-only so old outputs stay readable.
type Record struct {
	Key string `json:"key"`
	Cell
	Status Status `json:"status"`
	// Reason is the skip code of a skipped record.
	Reason string `json:"reason,omitempty"`
	// Error is the diagnosable error text of diagnosed/failed records.
	Error string `json:"error,omitempty"`
	// Time is the measured model time (cost-formula units); Phases the
	// phase/superstep count; Work the p·time product.
	Time   float64 `json:"time,omitempty"`
	Phases int     `json:"phases,omitempty"`
	Work   int64   `json:"work,omitempty"`
	// Bound, Upper, Ratio and AllRounds are the experiment-cell columns
	// (lower-bound formula value, §8 upper bound, measured/bound).
	Bound     float64 `json:"bound,omitempty"`
	Upper     float64 `json:"upper,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	AllRounds bool    `json:"allRounds,omitempty"`
	// Verified reports the oracle check of machine and fault cells.
	Verified bool `json:"verified,omitempty"`
	// Injected, Recovered and MaskedProcs are the fault-cell accounting.
	Injected    int `json:"injected,omitempty"`
	Recovered   int `json:"recovered,omitempty"`
	MaskedProcs int `json:"maskedProcs,omitempty"`
}

// csvHeader is the fixed CSV column set, mirroring Record field order.
var csvHeader = []string{
	"key", "exp", "model", "alg", "n", "p", "g", "d", "l",
	"alpha", "beta", "gamma", "fanin", "seed", "faults", "degraded",
	"status", "reason", "error", "time", "phases", "work",
	"bound", "upper", "ratio", "allRounds", "verified",
	"injected", "recovered", "maskedProcs", "backend", "procWorkers",
}

// csvRow renders the record in csvHeader order.
func (r Record) csvRow() []string {
	f := func(v float64) string {
		if v == 0 {
			return ""
		}
		return trimFloat(v)
	}
	i := func(v int) string {
		if v == 0 {
			return ""
		}
		return fmt.Sprintf("%d", v)
	}
	return []string{
		r.Key, r.Exp, r.Model, r.Alg,
		fmt.Sprintf("%d", r.N), i(r.P),
		fmt.Sprintf("%d", r.G), fmt.Sprintf("%d", r.D), fmt.Sprintf("%d", r.L),
		fmt.Sprintf("%d", r.Alpha), fmt.Sprintf("%d", r.Beta), fmt.Sprintf("%d", r.Gamma),
		i(r.Fanin), fmt.Sprintf("%d", r.Seed), r.Faults, fmt.Sprintf("%t", r.Degraded),
		string(r.Status), r.Reason, r.Error,
		f(r.Time), i(r.Phases), fmt.Sprintf("%d", r.Work),
		f(r.Bound), f(r.Upper), f(r.Ratio),
		fmt.Sprintf("%t", r.AllRounds), fmt.Sprintf("%t", r.Verified),
		i(r.Injected), i(r.Recovered), i(r.MaskedProcs),
		r.Backend, i(r.ProcWorkers),
	}
}

// trimFloat formats a float compactly ("12" not "12.000000").
func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return strings.TrimSuffix(s, ".0")
}
