// Package trace records the Section 5 trace objects of a run on any
// model: Trace(p, t, f), everything processor p observed through phase
// t, and Trace(c, t, f), cell c's contents at the end of phase t. Both
// are canonical string keys, so two runs whose keys agree are
// indistinguishable to that processor or cell; adversary.AnalyzeKnowledge
// turns them into the Know/degree ledger.
//
// A Trace is an engine.Observer. On a shared-memory machine a processor
// observes its reads, each "addr:contents" against start-of-phase memory,
// and a cell's key is the model's rendering of its contents. On BSP a
// component observes the messages delivered to it at the start of each
// superstep, and its inbox is its cell: the messages routed to it as the
// superstep closes. Observations buffer per phase and commit at PhaseEnd,
// so phases that fail or abort on a violation are never recorded, exactly
// the phases that never commit.
//
// Tracing renders every observation and every cell per phase, so it is
// meant for the small-n proof-machinery runs.
package trace

import (
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/engine"
)

// Trace is the recorded trace of one run.
type Trace struct {
	procs int
	// snap renders every cell's key at the end of a shared-memory phase;
	// nil on BSP, whose cells are the inboxes.
	snap    func() []string
	pending [][]string // [proc] this phase's observations so far
	inbox   [][]string // BSP: [comp] messages routed in the last committed superstep
	obs     [][][]string
	cells   [][]string
}

// Shared returns the trace of a shared-memory machine with procs
// processors whose cells mem returns and key renders.
func Shared[V any](procs int, mem func() []V, key func(V) string) *Trace {
	return &Trace{procs: procs, snap: func() []string {
		cells := mem()
		keys := make([]string, len(cells))
		for i, v := range cells {
			keys[i] = key(v)
		}
		return keys
	}}
}

// Messages returns the trace of a message-passing machine with procs
// components.
func Messages(procs int) *Trace {
	return &Trace{procs: procs, inbox: make([][]string, procs)}
}

// PhaseStart implements engine.Observer.
func (tr *Trace) PhaseStart(int) { tr.pending = make([][]string, tr.procs) }

// Request implements engine.Observer: a read is observed by its reader, a
// message by its destination, in the stream's deterministic order.
func (tr *Trace) Request(_ int, r engine.Request) {
	switch r.Kind {
	case engine.KindRead:
		tr.pending[r.Proc] = append(tr.pending[r.Proc], strconv.Itoa(int(r.Addr))+":"+r.Payload)
	case engine.KindSend:
		tr.pending[r.Addr] = append(tr.pending[r.Addr], r.Payload)
	}
}

// PhaseEnd implements engine.Observer: the phase committed, so its
// observations and end-of-phase cell keys join the record.
func (tr *Trace) PhaseEnd(int, cost.PhaseCost) {
	if tr.snap != nil {
		tr.obs = append(tr.obs, tr.pending)
		tr.cells = append(tr.cells, tr.snap())
	} else {
		// What was routed last superstep is delivered at this one's start.
		tr.obs = append(tr.obs, tr.inbox)
		tr.inbox = tr.pending
		keys := make([]string, tr.procs)
		for c, msgs := range tr.pending {
			keys[c] = "∅"
			if len(msgs) > 0 {
				keys[c] = strings.Join(msgs, ";")
			}
		}
		tr.cells = append(tr.cells, keys)
	}
	tr.pending = nil
}

// NumPhases returns the number of recorded phases.
func (tr *Trace) NumPhases() int { return len(tr.obs) }

// Procs returns the number of processors (BSP: components).
func (tr *Trace) Procs() int { return tr.procs }

// Cells returns the number of cells at the last recorded phase (BSP: one
// inbox per component; 0 before any phase).
func (tr *Trace) Cells() int {
	if len(tr.cells) == 0 {
		return 0
	}
	return len(tr.cells[len(tr.cells)-1])
}

// ProcKey canonically encodes Trace(p, t, f): everything processor p
// observed through phase t. It is empty for a processor outside the
// machine.
func (tr *Trace) ProcKey(p, t int) string {
	if p < 0 || p >= tr.procs {
		return ""
	}
	var b strings.Builder
	b.WriteByte('p')
	b.WriteString(strconv.Itoa(p))
	for ph := 0; ph <= t && ph < len(tr.obs); ph++ {
		b.WriteByte('|')
		b.WriteString(strings.Join(tr.obs[ph][p], ";"))
	}
	return b.String()
}

// CellKey canonically encodes Trace(c, t, f): cell c's contents at the
// end of phase t, "∅" for an empty cell or one outside the record.
func (tr *Trace) CellKey(c, t int) string {
	if t < 0 || t >= len(tr.cells) || c < 0 || c >= len(tr.cells[t]) {
		return "∅"
	}
	return tr.cells[t][c]
}
