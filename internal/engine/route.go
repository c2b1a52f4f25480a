package engine

import (
	"fmt"

	"repro/internal/cost"
)

// RouteModel is the adapter contract of a message-routing machine (the
// BSP), generic over the message type M. The engine owns staging,
// h-relation measurement and deterministic inbox delivery; the model
// supplies naming, the superstep cost rule and message rendering.
type RouteModel[M any] interface {
	Model
	// Render formats a message for observer events.
	Render(msg M) string
}

// Sends is the per-component staging buffer of one superstep: local work
// and outgoing messages, recycled on a free list across supersteps so
// buffers keep their capacity.
type Sends[M any] struct {
	work int64
	msgs []M
	dsts []int32
	fail error
}

// AddWork charges k units of local computation.
func (s *Sends[M]) AddWork(k int64) {
	if k > 0 {
		s.work += k
	}
}

// Stage queues a message to component dst for delivery at the start of
// the next superstep. Destination validation is the adapter's job (it
// owns the error wording); see Fail.
func (s *Sends[M]) Stage(dst int32, msg M) {
	s.msgs = append(s.msgs, msg)
	s.dsts = append(s.dsts, dst)
}

// Fail marks this component's superstep as failed (first error wins).
func (s *Sends[M]) Fail(err error) {
	if s.fail == nil {
		s.fail = err
	}
}

func (s *Sends[M]) reset() {
	s.work = 0
	s.msgs = s.msgs[:0]
	s.dsts = s.dsts[:0]
	s.fail = nil
}

// Route is the message-routing superstep engine. Machine adapters embed
// it and gain the superstep lifecycle: chunked body dispatch, the routing
// column barrier with h-relation measurement, deterministic delivery into
// ping-ponged inboxes, and observer emission.
type Route[M any] struct {
	Core
	model RouteModel[M]

	// sends is the per-machine free list of staging buffers, one per
	// component, reset and reused every superstep.
	sends []*Sends[M]
	inbox [][]M
	// spare ping-pongs with inbox: last superstep's inbox slices are
	// truncated and refilled as the next superstep's delivery target.
	spare [][]M
	// ckInbox is the inbox snapshot of the last Checkpoint (per-component
	// message copies, buffers reused across supersteps).
	ckInbox [][]M
	// Column-barrier scratch (see commit): active lists the components
	// that sent messages this superstep, merger counts their fan-in in
	// process, and bkDsts is the column-of-columns
	// header handed to an attached Backend (the destination columns are
	// borrowed from the staging buffers).
	active []int32
	merger RouteMerger
	bkDsts [][]int32
}

// InitRoute prepares the engine for a machine with the given model,
// parameters, input size and worker budget, with empty inboxes.
func (r *Route[M]) InitRoute(model RouteModel[M], params cost.Params, n, workers int) {
	r.Core.Init(model, params, n, workers)
	r.model = model
	r.inbox = make([][]M, params.P)
	r.spare = make([][]M, params.P)
}

// Incoming returns the messages delivered to component i at the start of
// the current superstep (i.e. sent during the previous superstep), in
// deterministic order (sorted by sender, then arrival order at the
// sender).
func (r *Route[M]) Incoming(i int) []M { return r.inbox[i] } //lint:colescape-ok documented borrow point: the pooled inbox row is valid until the next superstep commit

// Superstep runs one superstep: body is invoked once per component
// (concurrently over contiguous chunks) with the component's staging
// buffer; at the barrier the h-relation is measured, the superstep is
// charged under the model's cost rule, and staged messages are routed
// into the inboxes for the next superstep by the routing commit (see
// commit).
// Superstep is a no-op once the machine has erred.
func (r *Route[M]) Superstep(body func(i int, s *Sends[M])) {
	if r.Err() != nil {
		return
	}
	p := r.P()
	if r.sends == nil {
		r.sends = make([]*Sends[M], p)
		for i := range r.sends {
			r.sends[i] = &Sends[M]{}
		}
	}
	if r.InjectorActive() {
		r.Checkpoint()
	}
	r.RunPhase(r.Workers(), p, func(_, lo, hi int) (int32, error) {
		var nf int32
		var first error
		for i := lo; i < hi; i++ {
			s := r.sends[i]
			s.reset()
			if r.CrashedProc(i) {
				// Masked components idle: no work, no sends. The crash
				// flag is written at the previous superstep's barrier,
				// so masking is visible here race-free.
				continue
			}
			body(i, s)
			if s.fail != nil {
				if first == nil {
					first = s.fail
				}
				nf++
			}
		}
		return nf, first
	}, r.commit)
}

// Checkpoint snapshots the inboxes and cost aggregates at a committed-
// superstep boundary, so a transient fault in the next superstep can roll
// back to exactly this state.
func (r *Route[M]) Checkpoint() {
	if r.ckInbox == nil {
		r.ckInbox = make([][]M, len(r.inbox))
	}
	for i, in := range r.inbox {
		r.ckInbox[i] = append(r.ckInbox[i][:0], in...)
	}
	if s, ok := any(r.model).(Snapshotter); ok {
		s.Snapshot()
	}
	r.ckCore()
}

// Rollback restores the last Checkpoint: inbox contents and the cost
// report return to the checkpointed values (this superstep's deliveries
// are discarded; re-execution restages them from the restored
// start-of-superstep state). It reports whether a checkpoint was set.
func (r *Route[M]) Rollback() bool {
	if !r.rewindCore() {
		return false
	}
	for i := range r.inbox {
		r.inbox[i] = append(r.inbox[i][:0], r.ckInbox[i]...)
	}
	if s, ok := any(r.model).(Snapshotter); ok {
		s.Restore()
	}
	return true
}

// corruptInbox damages one component's delivered inbox to model a faulty
// message channel: drop the first delivery, or duplicate it. Rollback
// repairs it.
func (r *Route[M]) corruptInbox(comp int, drop bool) {
	if comp < 0 || comp >= len(r.inbox) || len(r.inbox[comp]) == 0 {
		return
	}
	in := r.inbox[comp]
	if drop {
		r.inbox[comp] = in[:len(in)-1]
	} else {
		r.inbox[comp] = append(in, in[0])
	}
}

// commit is the routing column barrier: it measures the h-relation,
// consults the fault injector, charges the superstep and routes staged
// messages, on the coordinating goroutine at every Workers setting. One
// scan of the staging buffers gathers w and the send side of the
// h-relation, lists the components that sent anything, and truncates
// the spare inboxes. The receive side is counted by RouteMerger over the
// senders' own destination columns, or — with a backend attached — by
// the Backend over every column (borrowed, index = component). Delivery
// fills the ping-ponged inboxes by ascending sender, so each inbox
// receives its messages grouped by sender in issue order.
func (r *Route[M]) commit() PhaseStatus {
	p := r.P()
	bk := r.backend != nil
	var w, h int64
	active := r.active[:0]
	dsts := r.bkDsts[:0]
	next := r.spare
	for i, s := range r.sends {
		w = max(w, s.work)
		h = max(h, int64(len(s.msgs)))
		if len(s.msgs) > 0 {
			active = append(active, int32(i))
		}
		if bk {
			dsts = append(dsts, s.dsts)
		}
		next[i] = next[i][:0]
	}
	r.active, r.bkDsts = active, dsts
	var st RouteStats
	if bk {
		var err error
		st, err = r.backend.MergeRoute(RouteMergeReq{
			Phase: r.curPhase, Attempt: r.attempt, P: p, Dsts: dsts,
		})
		if err != nil {
			return r.transportStatus(err)
		}
	} else {
		g := &r.merger
		g.begin(0, p)
		var cols [colBatch][]int32
		for rest := active; len(rest) > 0; {
			n := min(len(rest), colBatch)
			for j, i := range rest[:n] {
				cols[j] = r.sends[i].dsts
			}
			g.dsts(cols[:n])
			rest = rest[n:]
		}
		st = g.end()
	}
	h = max(h, st.HRecv)

	if r.InjectorActive() {
		switch v := r.consultInjector(0); v.Class {
		case FaultPermanent:
			// Nothing delivers; the machine poisons with the fault error
			// (staged sends are simply abandoned).
			r.RecordErr(fmt.Errorf("%s: superstep %d: %w", //lint:hotpathalloc-ok violation path: formats once, then the machine is poisoned
				r.model.Name(), r.Report().NumPhases(), v.Err))
			return PhaseAborted
		case FaultTransient:
			// The fault fires after delivery: charge, deliver, damage the
			// target component's inbox (drop or duplicate) — then
			// "detect" it at the barrier and roll back to the
			// superstep-start checkpoint. The aborted attempt emits no
			// Request and no PhaseEnd events.
			r.chargePhase(Outcome{MaxOps: w, MaxRW: h})
			r.deliverFromSends()
			r.corruptInbox(v.Addr, v.Drop)
			r.Rollback()
			return PhaseRetry
		}
	}

	pc := r.chargePhase(Outcome{MaxOps: w, MaxRW: h})
	if r.Observing() {
		r.emitRequests()
	}
	r.deliverFromSends()
	r.observePhaseEnd(pc)
	return PhaseCommitted
}

// deliverFromSends routes the active senders' staged messages straight
// into the spare inboxes (truncated by commit's scan), by ascending
// sender, and swaps them in.
func (r *Route[M]) deliverFromSends() {
	next := r.spare
	for _, i := range r.active {
		s := r.sends[i]
		for j, msg := range s.msgs {
			d := s.dsts[j]
			next[d] = append(next[d], msg)
		}
	}
	r.spare, r.inbox = r.inbox, next //lint:commitpurity-ok the column barrier's delivery half: called only from commit inside the barrier
}

// emitRequests renders the superstep's sends as observer events, grouped
// by ascending sender and in issue order. Addr carries the destination
// component.
func (r *Route[M]) emitRequests() {
	for i, s := range r.sends {
		for j, msg := range s.msgs {
			r.observeRequest(Request{Proc: i, Kind: KindSend, Addr: s.dsts[j],
				Payload: r.model.Render(msg)})
		}
	}
}
