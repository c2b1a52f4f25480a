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
//     phase, grouped by ascending processor: each processor's reads, then
//     its writes or sends, each in issue order. Read payloads render the
//     start-of-phase contents (what the reader observed); requests are
//     emitted before writes apply.
//   - PhaseEnd fires after the phase's writes/deliveries have been
//     applied, with the charged cost record.
//
// An attached *EventLog gets one record per committed phase instead (see
// EventLog). Any other observer gets the record's Request calls from the
// expander that renders the log, so both see the same per-cell order.
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

// observeRecord is the barrier's hand-off of a committed phase, before its
// writes apply: src records the phase into each attached EventLog, and
// for any other observer into the core's relay log, whose expander
// replays it as Request calls.
func (c *Core) observeRecord(src columnSource) {
	for _, o := range c.obs {
		l, isLog := o.(*EventLog)
		if !isLog {
			l = &c.relay
			l.Reset()
		}
		if src.record(l); !isLog && len(l.recs) > 0 {
			l.expand(0, func(r Request) { o.Request(c.curPhase, r) })
		}
	}
}

func (c *Core) observePhaseEnd(pc cost.PhaseCost) {
	for _, o := range c.obs {
		o.PhaseEnd(c.curPhase, pc)
	}
}

// EventLog is a ready-made Observer that records the event stream
// compactly and renders text lazily. The engine hands an attached log one
// record per committed phase: the lanes' spans, their read and write
// column words as staged (plain, run and fill), the write values, and a
// block copy of the values the reads observed, taken before the writes
// apply. Only reading the log (Len, Lines, String) expands the runs and
// calls the model's Render, through the expander that feeds other
// observers, so the text is the phase's per-cell Request stream. Shallow
// copies suffice: Apply replaces cells and never mutates a value in place.
// Storage grows in pages that are never copied, and Reset keeps them, so
// a recycled log observes its next run allocation-free at steady state.
// PhaseStart, Request and PhaseEnd record one event each, also for a log
// fed by hand. The text is part of the determinism contract: runs at
// different Workers settings give byte-identical logs.
type EventLog struct {
	events []logEvent //repro:pooled
	// ends holds the PhaseEnd cost records and recs the phase records; an
	// evEnd or evRecord event stores its index there in the addr field.
	ends   []cost.PhaseCost //repro:pooled
	recs   []phaseRec       //repro:pooled
	spans  pages[span]      //repro:pooled
	words  pages[int32]     //repro:pooled
	stores []valueStore     //repro:pooled
}

// logEvent is one recorded observer event in 32 bytes: a phase start, a
// hand-fed request (its payload string as the caller rendered it), a
// phase record or a phase end.
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
	evRecord
)

// phaseRec is one committed phase in an EventLog: nReads read words and
// then the write words (of kind; PackWrite entries if packed), each
// lane's after the previous lane's, the lanes' spans rebased to them, and
// in stores[store] one value per read cell (nReadVals) and then the write
// values, which r renders.
type phaseRec struct {
	spans, words, vals       loc
	nReads, nReadVals, store int32
	kind                     RequestKind
	packed                   bool
	r                        any
}

// pages is append-only storage that grows a page at a time and never
// copies what it holds. A block reserved at once lands in one page, so it
// reads back as one slice. The pages of a value type are a valueStore.
type pages[T any] struct {
	ps  [][]T //repro:pooled
	cur int
}

// loc is where a block sits in pages: its page, offset and length.
type loc struct{ page, off, n int32 }

// reserve returns n elements in one page and sets at to where they sit.
// Page k holds 256·2^k elements, up to 64Ki, or n if more.
func (p *pages[T]) reserve(n int, at *loc) []T {
	for p.cur < len(p.ps) && cap(p.ps[p.cur])-len(p.ps[p.cur]) < n {
		p.cur++
	}
	if p.cur == len(p.ps) {
		p.ps = append(p.ps, make([]T, 0, max(n, 256<<min(p.cur, 8))))
	}
	pg := p.ps[p.cur]
	p.ps[p.cur], *at = pg[:len(pg)+n], loc{int32(p.cur), int32(len(pg)), int32(n)}
	return pg[len(pg) : len(pg)+n] //lint:colescape-ok documented borrow point: the reserved block is the caller's to fill
}

// at returns the block at b.
func (p *pages[T]) at(b loc) []T { return p.ps[b.page][b.off : b.off+b.n] } //lint:colescape-ok documented borrow point: a recorded block, read in place

// reset empties every page and keeps it.
func (p *pages[T]) reset() {
	for i := range p.ps {
		p.ps[i] = p.ps[i][:0]
	}
	p.cur = 0
}

func (p *pages[T]) render(r any, b loc, i int32) string {
	return r.(interface{ Render(T) string }).Render(p.ps[b.page][b.off+i])
}

// valueStore is an EventLog's pages of one value type; render renders
// value i of the block at b with the renderer r.
type valueStore interface {
	render(r any, b loc, i int32) string
	reset()
}

// recordLanes appends the phase's lanes to l as one record and returns
// its values for the engine to fill: one per read cell, then the lanes'
// write values (none in a packed store, whose entries hold their bits). A
// phase without requests records nothing.
func recordLanes[W, C, V any](l *EventLog, c *Core, lanes []*lane[W, C], r interface{ Render(V) string },
	kind RequestKind, packed bool) []V {
	var ns, nr, nw, nrv, nwv int
	for _, ln := range lanes {
		ns, nr, nw = ns+len(ln.spans), nr+len(ln.cur.readAddrs), nw+len(ln.cur.writes)
		nrv, nwv = nrv+colCells(ln.cur.readAddrs), nwv+len(ln.cur.writeVals)
	}
	if ns == 0 {
		return nil
	}
	rec := phaseRec{nReads: int32(nr), nReadVals: int32(nrv), kind: kind, packed: packed, r: r}
	spans, words := l.spans.reserve(ns, &rec.spans), l.words.reserve(nr+nw, &rec.words)
	vals := valuesFor[V](l, &rec.store).reserve(nrv+nwv, &rec.vals)
	ns, rb, wb := 0, int32(0), int32(0)
	for _, ln := range lanes {
		for _, s := range ln.spans {
			spans[ns], ns = span{s.proc, s.r1 + rb, s.w1 + wb}, ns+1
		}
		rb += int32(copy(words[rb:], ln.cur.readAddrs))
		wb += int32(copy(words[nr+int(wb):], ln.cur.writes))
	}
	l.events = append(l.events, logEvent{kind: evRecord, phase: int32(c.curPhase), addr: int32(len(l.recs))})
	l.recs = append(l.recs, rec)
	return vals
}

// valuesFor returns l's store of V values and sets at to its index,
// adding the store on the first record of a V-valued machine.
func valuesFor[V any](l *EventLog, at *int32) *pages[V] {
	for i, s := range l.stores {
		if vs, ok := s.(*pages[V]); ok {
			*at = int32(i)
			return vs
		}
	}
	*at = int32(len(l.stores))
	vs := new(pages[V])
	l.stores = append(l.stores, vs)
	return vs
}

// colCells counts the cells a request column's words stand for.
func colCells(col []int32) int {
	n := 0
	for i := 0; i < len(col); {
		_, k, next := Run(col, i)
		n, i = n+k, next
	}
	return n
}

// expand hands f the requests of record ri, one per cell with its payload
// rendered: by ascending processor, each processor's reads and then its
// writes or sends, each in issue order, and a fill run's one value for
// each of its cells. It is the one place a record becomes per-cell
// events, for the log's text and for every other observer.
func (l *EventLog) expand(ri int32, f func(Request)) {
	rec := &l.recs[ri]
	vs, words := l.stores[rec.store], l.words.at(rec.words)
	reads, writes := words[:rec.nReads], words[rec.nReads:]
	rv, wv, r0, w0 := int32(0), rec.nReadVals, 0, 0
	for _, s := range l.spans.at(rec.spans) {
		for i := r0; i < int(s.r1); {
			a, n, next := Run(reads, i)
			for ; n > 0; a, n, rv = a+1, n-1, rv+1 {
				f(Request{Proc: int(s.proc), Kind: KindRead, Addr: a, Payload: vs.render(rec.r, rec.vals, rv)})
			}
			i = next
		}
		for i := w0; i < int(s.w1); {
			a, n, next, fill := RunFill(writes, i)
			var payload string
			for k := 0; k < n; a, k = a+1, k+1 {
				switch {
				case rec.packed: // one cell, whose entry holds its bit
					var bit uint32
					a, bit = unpackWrite(a)
					payload = bitRender{}.Render(uint8(bit))
				case k == 0 || !fill:
					payload, wv = vs.render(rec.r, rec.vals, wv), wv+1
				}
				f(Request{Proc: int(s.proc), Kind: rec.kind, Addr: a, Payload: payload})
			}
			i = next
		}
		r0, w0 = int(s.r1), int(s.w1)
	}
}

// PhaseStart implements Observer.
func (l *EventLog) PhaseStart(phase int) {
	l.events = append(l.events, logEvent{kind: evStart, phase: int32(phase)})
}

// Request implements Observer.
func (l *EventLog) Request(phase int, r Request) {
	l.events = append(l.events, logEvent{kind: evRequest, reqKind: r.Kind,
		phase: int32(phase), proc: int32(r.Proc), addr: r.Addr, payload: r.Payload})
}

// PhaseEnd implements Observer.
func (l *EventLog) PhaseEnd(phase int, pc cost.PhaseCost) {
	l.events = append(l.events, logEvent{kind: evEnd, phase: int32(phase),
		addr: int32(len(l.ends))})
	l.ends = append(l.ends, pc)
}

// Len returns the number of events, a record counting one per request.
func (l *EventLog) Len() int {
	n := len(l.events) - len(l.recs)
	for _, rec := range l.recs {
		n += int(rec.nReadVals) + colCells(l.words.at(rec.words)[rec.nReads:])
	}
	return n
}

// Reset drops the recorded events but keeps the storage, so a recycled
// log observes its next run allocation-free at steady state.
func (l *EventLog) Reset() {
	l.events, l.ends, l.recs = l.events[:0], l.ends[:0], l.recs[:0]
	l.spans.reset()
	l.words.reset()
	for _, s := range l.stores {
		s.reset()
	}
}

// eachLine hands f the text of every event in order, one line at a time
// in a reused buffer, a record one line per request. Built on strconv, it
// is the single renderer behind Lines and String.
func (l *EventLog) eachLine(f func(line []byte)) {
	buf := make([]byte, 0, 64)
	for _, e := range l.events {
		if e.kind != evRecord {
			buf = l.appendLine(buf[:0], e)
			f(buf)
		} else {
			l.expand(e.addr, func(r Request) { buf = appendRequest(buf[:0], e.phase, r); f(buf) })
		}
	}
}

// appendLine appends the text of one event other than a record to dst.
func (l *EventLog) appendLine(dst []byte, e logEvent) []byte {
	if e.kind == evRequest {
		return appendRequest(dst, e.phase, Request{Proc: int(e.proc), Kind: e.reqKind, Addr: e.addr, Payload: e.payload})
	}
	if dst = strconv.AppendInt(append(dst, "phase "...), int64(e.phase), 10); e.kind == evStart {
		return append(dst, " start"...)
	}
	pc := l.ends[e.addr]
	dst = strconv.AppendInt(append(dst, " end: time="...), int64(pc.Time), 10)
	dst = strconv.AppendInt(append(dst, " m_op="...), pc.MaxOps, 10)
	dst = strconv.AppendInt(append(dst, " m_rw="...), pc.MaxRW, 10)
	dst = strconv.AppendInt(append(dst, " κ="...), pc.Contention, 10)
	return strconv.AppendBool(append(dst, " round="...), pc.IsRound)
}

func appendRequest(dst []byte, phase int32, r Request) []byte {
	dst = strconv.AppendInt(append(dst, "phase "...), int64(phase), 10)
	dst = strconv.AppendInt(append(dst, " p"...), int64(r.Proc), 10)
	dst = append(append(append(dst, ' '), r.Kind.String()...), ' ')
	dst = strconv.AppendInt(dst, int64(r.Addr), 10)
	return append(append(dst, '='), r.Payload...)
}

// Lines renders the event stream, one line per event.
func (l *EventLog) Lines() []string {
	out := make([]string, 0, l.Len())
	l.eachLine(func(line []byte) { out = append(out, string(line)) })
	return out
}

// String renders the log lines joined by newlines into one buffer, sized
// up front at a typical 32 bytes a line (a request line at n ≈ 1024 is ~26
// bytes with its payload), so a large log renders in a few allocations.
func (l *EventLog) String() string {
	buf := make([]byte, 0, 32*l.Len())
	l.eachLine(func(line []byte) {
		if len(buf) > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, line...)
	})
	return string(buf)
}
