package gsm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/engine"
)

// Trace records, for a traced run, the Section 5 trace objects:
// Trace(p, t, f) for processors (the sequence of (cell, contents) pairs
// read, per phase) and Trace(c, t, f) for cells (their contents at each
// phase boundary).
//
// Trace is an engine.Observer: read observations arrive as request events
// (rendered against start-of-phase memory, so readers see what they
// actually observed) buffered in pending, and commit into the record at
// PhaseEnd after the phase's merges applied — phases that fail or abort
// on a violation are never recorded, exactly the phases that never
// commit.
type Trace struct {
	m *Machine
	// pending[p] is the current phase's observation list so far.
	pending [][]string
	// reads[t][p] is the sorted list of "(cell:contents)" strings processor
	// p read in phase t (contents as of the start of the phase).
	reads [][][]string
	// cells[t][c] is the contents key of cell c at the END of phase t.
	cells [][]string
}

// EnableTracing switches on trace recording; it must be called before the
// first phase. Tracing snapshots every cell at each phase boundary, so it
// is intended for the small-n proof-machinery experiments.
func (m *Machine) EnableTracing() {
	m.trace = &Trace{m: m}
	m.AddObserver(m.trace)
}

// TraceLog returns the recorded trace, or nil if tracing was not enabled.
func (m *Machine) TraceLog() *Trace { return m.trace }

func infoKey(in Info) string {
	if len(in) == 0 {
		return "∅"
	}
	var b strings.Builder
	b.Grow(4 * len(in)) // room for elements below 1000 and their commas
	var num [20]byte
	for i, a := range in {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(num[:0], a, 10))
	}
	return b.String()
}

// PhaseStart implements engine.Observer.
func (tr *Trace) PhaseStart(int) {
	tr.pending = make([][]string, tr.m.P())
}

// Request implements engine.Observer: reads append to the issuing
// processor's pending observation list in issue order, with the contents
// they observed.
func (tr *Trace) Request(_ int, r engine.Request) {
	if r.Kind == engine.KindRead {
		tr.pending[r.Proc] = append(tr.pending[r.Proc],
			fmt.Sprintf("%d:%s", r.Addr, r.Payload))
	}
}

// PhaseEnd implements engine.Observer: the phase committed, so the
// pending observations become the phase's read record and all cell
// contents (post-merge) are snapshotted as the end-of-phase state.
func (tr *Trace) PhaseEnd(int, cost.PhaseCost) {
	tr.reads = append(tr.reads, tr.pending)
	tr.pending = nil
	cells := tr.m.Data()
	snap := make([]string, len(cells))
	for i, info := range cells {
		snap[i] = infoKey(info)
	}
	tr.cells = append(tr.cells, snap)
}

// NumPhases returns the number of recorded phases.
func (tr *Trace) NumPhases() int { return len(tr.reads) }

// ProcKey returns a canonical key for Trace(p, t, f): everything processor
// p observed through phase t (inclusive). Two runs whose ProcKeys agree
// are indistinguishable to the processor.
func (tr *Trace) ProcKey(p, t int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p%d", p)
	for ph := 0; ph <= t && ph < len(tr.reads); ph++ {
		b.WriteByte('|')
		b.WriteString(strings.Join(tr.reads[ph][p], ";"))
	}
	return b.String()
}

// CellKey returns a canonical key for Trace(c, t, f): the cell's contents
// at the end of phase t.
func (tr *Trace) CellKey(c, t int) string {
	if t < 0 || t >= len(tr.cells) || c >= len(tr.cells[t]) {
		return "∅"
	}
	return tr.cells[t][c]
}
