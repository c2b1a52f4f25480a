package engine

import (
	"strconv"

	"repro/internal/cost"
)

// RequestKind classifies the requests a processor records in one phase.
type RequestKind int8

const (
	// KindRead is a shared-memory read.
	KindRead RequestKind = iota
	// KindWrite is a shared-memory write.
	KindWrite
	// KindSend is a BSP-style point-to-point message send.
	KindSend
)

// String returns the event-stream verb of the kind.
func (k RequestKind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindSend:
		return "send"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Request is one structured observer event: a single read, write or send
// recorded by a processor during a phase.
type Request struct {
	// Proc is the issuing processor (BSP: component).
	Proc int
	// Kind is the request kind.
	Kind RequestKind
	// Addr is the shared-memory cell (reads/writes) or the destination
	// component (sends).
	Addr int32
	// Payload is the model-rendered value: the start-of-phase contents the
	// read observed, the value/information written, or the message sent.
	Payload string
}

// Observer receives the structured event stream of a machine run. Events
// are emitted from the coordinating goroutine in a deterministic order
// that is identical for every Workers setting:
//
//   - PhaseStart fires when a phase (BSP: superstep) begins, before any
//     processor body runs.
//   - Request fires once per recorded read/write/send of a *committed*
//     phase, grouped by ascending processor and in issue order within a
//     processor. Read payloads render the start-of-phase contents (what
//     the reader observed); requests are emitted before writes apply.
//   - PhaseEnd fires after the phase's writes/deliveries have been
//     applied, with the charged cost record.
//
// A phase that fails (a processor body errs) or aborts on a model
// violation emits no Request events and no PhaseEnd — exactly the phases
// that never commit. Under fault injection (see fault.go) the same rule
// holds per attempt: a transient-aborted attempt emits its PhaseStart but
// no Request and no PhaseEnd; the recovery stall that follows is a
// request-free committed phase (PhaseStart then PhaseEnd); the retried
// attempt then starts at the next phase index. The full stream, faults
// included, stays byte-identical for every Workers setting.
type Observer interface {
	PhaseStart(phase int)
	Request(phase int, r Request)
	PhaseEnd(phase int, pc cost.PhaseCost)
}

// AddObserver attaches an observer; call before the first phase. Multiple
// observers receive every event in attachment order.
func (c *Core) AddObserver(o Observer) { c.obs = append(c.obs, o) }

func (c *Core) observePhaseStart() {
	c.curPhase = c.report.NumPhases()
	for _, o := range c.obs {
		o.PhaseStart(c.curPhase)
	}
}

func (c *Core) observeRequest(r Request) {
	for _, o := range c.obs {
		o.Request(c.curPhase, r)
	}
}

func (c *Core) observePhaseEnd(pc cost.PhaseCost) {
	for _, o := range c.obs {
		o.PhaseEnd(c.curPhase, pc)
	}
}

// EventLog is a ready-made Observer that records the event stream as
// compact structured records and renders text lazily: observing a run
// costs one slice append per event (no fmt work, no per-line string),
// so attaching an EventLog does not turn the commit path into an
// allocation benchmark. Rendered output is part of the engine's
// determinism contract: two runs of the same algorithm at different
// Workers settings must produce byte-identical logs. It also backs
// `parsim -events`.
type EventLog struct {
	events []logEvent //repro:pooled
	// ends holds the PhaseEnd cost records; an evEnd event stores its
	// index here in the addr field.
	ends []cost.PhaseCost //repro:pooled
}

// logEvent is one recorded observer event in 32 bytes: a phase start, a
// request (payload strings for small integers are interned by the
// renderers, so recording them retains no per-event allocation), or a
// phase end pointing into ends.
type logEvent struct {
	kind    int8
	reqKind RequestKind
	phase   int32
	proc    int32
	addr    int32
	payload string
}

const (
	evStart int8 = iota
	evRequest
	evEnd
)

// PhaseStart implements Observer.
//
//repro:hot
func (l *EventLog) PhaseStart(phase int) {
	l.events = append(l.events, logEvent{kind: evStart, phase: int32(phase)})
}

// Request implements Observer.
//
//repro:hot
func (l *EventLog) Request(phase int, r Request) {
	l.events = append(l.events, logEvent{kind: evRequest, reqKind: r.Kind,
		phase: int32(phase), proc: int32(r.Proc), addr: r.Addr, payload: r.Payload})
}

// PhaseEnd implements Observer.
//
//repro:hot
func (l *EventLog) PhaseEnd(phase int, pc cost.PhaseCost) {
	l.events = append(l.events, logEvent{kind: evEnd, phase: int32(phase),
		addr: int32(len(l.ends))})
	l.ends = append(l.ends, pc)
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Reset drops the recorded events but keeps the storage, so a recycled
// log observes its next run allocation-free at steady state.
func (l *EventLog) Reset() {
	l.events = l.events[:0]
	l.ends = l.ends[:0]
}

// appendLine appends the text of one recorded event to dst. It is the
// single renderer behind Lines and String, built on strconv so rendering
// a large log costs no fmt work and no per-field allocation.
func (l *EventLog) appendLine(dst []byte, e logEvent) []byte {
	dst = append(dst, "phase "...)
	dst = strconv.AppendInt(dst, int64(e.phase), 10)
	switch e.kind {
	case evStart:
		return append(dst, " start"...)
	case evRequest:
		dst = append(dst, " p"...)
		dst = strconv.AppendInt(dst, int64(e.proc), 10)
		dst = append(dst, ' ')
		dst = append(dst, e.reqKind.String()...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(e.addr), 10)
		dst = append(dst, '=')
		return append(dst, e.payload...)
	default:
		pc := l.ends[e.addr]
		dst = append(dst, " end: time="...)
		dst = strconv.AppendInt(dst, int64(pc.Time), 10)
		dst = append(dst, " m_op="...)
		dst = strconv.AppendInt(dst, pc.MaxOps, 10)
		dst = append(dst, " m_rw="...)
		dst = strconv.AppendInt(dst, pc.MaxRW, 10)
		dst = append(dst, " κ="...)
		dst = strconv.AppendInt(dst, pc.Contention, 10)
		dst = append(dst, " round="...)
		return strconv.AppendBool(dst, pc.IsRound)
	}
}

// Lines renders the event stream, one line per event.
func (l *EventLog) Lines() []string {
	out := make([]string, len(l.events))
	var buf []byte
	for i, e := range l.events {
		buf = l.appendLine(buf[:0], e)
		out[i] = string(buf)
	}
	return out
}

// String renders the log lines joined by newlines into one buffer,
// sized up front from the recorded events so a large log renders in a
// constant number of allocations.
func (l *EventLog) String() string {
	size := 0
	for _, e := range l.events {
		size += lineSizeHint[e.kind] + len(e.payload) + 1
	}
	buf := make([]byte, 0, size)
	for i, e := range l.events {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = l.appendLine(buf, e)
	}
	return string(buf)
}

// lineSizeHint is a typical rendered length per event kind, excluding
// the payload: a request line at n ≈ 1024 is ~26 bytes, a phase
// end ~50. Underestimates only cost a few buffer growths.
var lineSizeHint = [...]int{evStart: 16, evRequest: 28, evEnd: 56}
