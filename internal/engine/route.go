package engine

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sched"
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

// Sends is a component's staging handle inside a superstep: local work
// and outgoing messages. Like MemCtx it is a lane's cursor, pointed at
// one component at a time and valid only during that component's body
// call: a send is a write of the message to the destination component.
type Sends[M any] struct {
	c cursor[M]
}

// AddWork charges k units of local computation.
func (s *Sends[M]) AddWork(k int64) {
	if k > 0 {
		s.c.ops += k
	}
}

// Stage queues a message to component dst for delivery at the start of
// the next superstep. Destination validation is the adapter's job (it
// owns the error wording); see Fail.
func (s *Sends[M]) Stage(dst int32, msg M) {
	s.c.wrs++
	s.c.writes = append(s.c.writes, dst)
	s.c.writeVals = append(s.c.writeVals, msg)
}

// Fail marks this component's superstep as failed (first error wins).
func (s *Sends[M]) Fail(err error) {
	if s.c.fail == nil {
		s.c.fail = err
	}
}

func (s *Sends[M]) base() *cursor[M] { return &s.c }

// Route is the message-routing superstep engine. Machine adapters embed
// it and gain the superstep lifecycle: chunked body dispatch, the routing
// column barrier with h-relation measurement, deterministic delivery into
// ping-ponged inboxes, and observer emission.
type Route[M any] struct {
	Core
	model RouteModel[M]

	// lanes holds one request lane per dispatch chunk, as in the
	// shared-memory engine.
	lanes []*lane[M, Sends[M]] //repro:pooled
	inbox [][]M                //repro:pooled
	// spare ping-pongs with inbox: last superstep's inbox slices are
	// truncated and refilled as the next superstep's delivery target.
	spare [][]M //repro:pooled
	// ckInbox is the inbox snapshot of the last Checkpoint (per-component
	// message copies, buffers reused across supersteps).
	ckInbox [][]M //repro:pooled
	// Column-barrier scratch (see gather): merger counts the senders'
	// fan-in in process, and bkDsts is the p-long column-of-columns
	// header handed to an attached Backend (the destination columns are
	// borrowed from the lanes).
	merger RouteMerger
	bkDsts [][]int32 //repro:pooled
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
// handle; at the barrier the h-relation is measured, the superstep is
// charged under the model's cost rule, and staged messages are routed
// into the inboxes for the next superstep (see Core.commit and gather).
// Superstep is a no-op once the machine has erred.
func (r *Route[M]) Superstep(body func(i int, s *Sends[M])) {
	p, w := r.P(), r.Workers()
	r.lanes = useLanes(r.lanes, sched.NumBlocks(w, p), nil)
	r.runPhase(w, p, func(k, lo, hi int) (int32, error) {
		return r.lanes[k].run(&r.Core, lo, hi, func(s *Sends[M]) { body(s.c.proc, s) })
	}, r)
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
	return true
}

// corrupt damages one component's delivered inbox to model a faulty
// message channel: drop the last delivery, or duplicate the first.
// Rollback repairs it.
func (r *Route[M]) corrupt(v Verdict) {
	comp := v.Addr
	if comp < 0 || comp >= len(r.inbox) || len(r.inbox[comp]) == 0 {
		return
	}
	in := r.inbox[comp]
	if v.Drop {
		r.inbox[comp] = in[:len(in)-1]
	} else {
		r.inbox[comp] = append(in, in[0])
	}
}

// gather is the routing half of the barrier's merge: w and the send side
// of the h-relation are the maxima of the lanes' maxima, and the receive
// side is counted by RouteMerger over the senders' own destination
// columns, or — with a backend attached — by the Backend over a p-long
// view of them. Routing has no access rule to violate.
func (r *Route[M]) gather() (Outcome, int32, error) {
	var o Outcome
	for _, l := range r.lanes {
		o.MaxOps, o.MaxRW = max(o.MaxOps, l.mOp), max(o.MaxRW, l.mRW)
	}
	var st RouteStats
	if r.backend != nil {
		r.bkDsts = colViews(r.bkDsts, r.P(), r.lanes, true)
		var err error
		st, err = r.backend.MergeRoute(RouteMergeReq{
			Phase: r.curPhase, Attempt: r.attempt, P: r.P(), Dsts: r.bkDsts,
		})
		if err != nil {
			return o, -1, err
		}
	} else {
		// Fan-in counts messages, not senders, so each lane's whole
		// destination column counts at once.
		g := &r.merger
		g.begin(0, r.P())
		var col [1][]int32
		for _, l := range r.lanes {
			col[0] = l.cur.writes
			g.dsts(col[:])
		}
		st = g.end()
	}
	o.MaxRW = max(o.MaxRW, st.HRecv)
	return o, -1, nil
}

// poison records a permanent fault: nothing delivers, and the staged
// sends are simply abandoned.
func (r *Route[M]) poison(_ int32, v Verdict) {
	r.RecordErr(fmt.Errorf("%s: superstep %d: %w",
		r.model.Name(), r.Report().NumPhases(), v.Err))
}

// apply routes the staged messages straight from the lanes into the
// spare inboxes, truncated first, by ascending sender, and swaps them
// in, so each inbox receives its messages grouped by sender in issue
// order.
func (r *Route[M]) apply() {
	next := r.spare
	for i := range next {
		next[i] = next[i][:0]
	}
	for _, l := range r.lanes {
		msgs := l.cur.writeVals
		for j, d := range l.cur.writes {
			next[d] = append(next[d], msgs[j])
		}
	}
	r.spare, r.inbox = r.inbox, next
}

// record hands l the superstep before delivery: the lanes' destination
// columns and their messages.
func (r *Route[M]) record(l *EventLog) {
	vals := recordLanes[M, Sends[M], M](l, &r.Core, r.lanes, r.model, KindSend, false)
	for _, ln := range r.lanes {
		vals = vals[copy(vals, ln.cur.writeVals):]
	}
}
