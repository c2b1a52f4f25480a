// Package bsp implements a cost-accurate simulator for Valiant's Bulk
// Synchronous Parallel model as specified in MacKenzie & Ramachandran
// (SPAA 1998), Section 2.1.
//
// A BSP machine has p processor/memory components communicating by
// point-to-point messages over a network characterised by a bandwidth
// parameter g and a latency parameter L (the paper assumes L ≥ g). The
// computation is a sequence of supersteps separated by bulk
// synchronisations. In a superstep each component performs local work and
// sends/receives messages; messages sent in superstep s are delivered before
// superstep s+1 begins. With w the maximum local work, and
// h = max_i(max(s_i, r_i)) the routed h-relation, a superstep costs
//
//	T = max(w, g·h, L).
//
// The simulator enforces the model's discipline that messages are sent
// "based on [the component's] state at the start of the superstep": sends
// may depend on private memory and on messages received in *earlier*
// supersteps, never on messages of the current one (incoming messages of the
// current superstep are simply not visible until the next).
//
// An input of size n is partitioned uniformly: component i is assigned
// either ⌈n/p⌉ or ⌊n/p⌋ inputs (Block distribution helpers below).
//
// The superstep lifecycle — dispatch, h-relation measurement, the
// deterministic routing commit and observer events — lives in
// internal/engine; this package is the model adapter binding that runtime
// to BSP components, private memories and the max(w, g·h, L) cost rule.
package bsp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Message is a point-to-point BSP message.
type Message struct {
	// From is the sending component.
	From int
	// Tag is an algorithm-chosen small integer (e.g. a slot index).
	Tag int64
	// Val is the payload word.
	Val int64
}

// Machine is a BSP machine instance: the engine's message-routing runtime
// over per-component private memories.
type Machine struct {
	engine.Route[Message]
	priv  [][]int64 // per-component private memory
	trace *trace.Trace
	ctxs  []Ctx
	// ckPriv is the private-memory half of a fault checkpoint (see
	// bspModel.Snapshot); buffers are reused across supersteps.
	ckPriv [][]int64
}

// Config parameterises a BSP machine.
type Config struct {
	// P is the number of components.
	P int
	// G and L are the bandwidth and latency parameters; L ≥ g ≥ 1.
	G, L int64
	// N is the input size (used for round classification: a superstep is a
	// round iff it routes an O(n/p)-relation and does O(gn/p + L) work).
	N int
	// PrivCells is the private memory size per component.
	PrivCells int
	// Workers is validated (it must be ≥ 0) and has no effect on how
	// the machine runs: every phase runs its bodies on the calling
	// goroutine.
	Workers int
}

// New constructs a BSP machine with empty inboxes and zeroed private
// memories.
func New(c Config) (*Machine, error) {
	p := cost.Params{G: c.G, L: c.L, P: c.P}
	if err := engine.ValidateConfig("bsp", p, c.N, c.PrivCells, c.Workers, true); err != nil {
		return nil, err
	}
	m := &Machine{priv: make([][]int64, c.P)}
	for i := range m.priv {
		m.priv[i] = make([]int64, c.PrivCells)
	}
	m.InitRoute(bspModel{m}, p, c.N)
	return m, nil
}

// MustNew is New but panics on configuration errors.
func MustNew(c Config) *Machine {
	m, err := New(c)
	if err != nil {
		panic(err)
	}
	return m
}

// EnableTracing switches on the Section 5 trace (package trace), whose
// cells are the component inboxes; call before the first superstep.
func (m *Machine) EnableTracing() {
	m.trace = trace.Messages(m.P())
	m.AddObserver(m.trace)
}

// TraceLog returns the recorded trace, or nil if tracing was off.
func (m *Machine) TraceLog() *trace.Trace { return m.trace }

// G returns the bandwidth parameter.
func (m *Machine) G() int64 { return m.Params().G }

// L returns the latency parameter.
func (m *Machine) L() int64 { return m.Params().L }

// BlockRange returns the half-open index range [lo, hi) of the inputs
// assigned to component i under the paper's uniform partition: each
// component gets ⌈n/p⌉ or ⌊n/p⌋ inputs.
func BlockRange(n, p, i int) (lo, hi int) {
	q, r := n/p, n%p
	if i < r {
		lo = i * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (i-r)*q
	return lo, lo + q
}

// Scatter loads input words into private memories under the block
// distribution: component i receives input[lo:hi] at private addresses
// 0..hi-lo-1. Loading the input is not charged (it is the initial state).
func (m *Machine) Scatter(input []int64) error {
	if len(input) != m.N() {
		return fmt.Errorf("bsp: Scatter input length %d ≠ N %d", len(input), m.N())
	}
	for i := 0; i < m.P(); i++ {
		lo, hi := BlockRange(m.N(), m.P(), i)
		if hi-lo > len(m.priv[i]) {
			return fmt.Errorf("bsp: component %d private memory %d too small for block %d",
				i, len(m.priv[i]), hi-lo)
		}
		copy(m.priv[i][:hi-lo], input[lo:hi])
	}
	return nil
}

// Peek reads a private-memory cell of a component for host-side output
// extraction (not charged). An out-of-range component or address is a
// host-side bug: it records a machine error (first error wins) and returns
// 0, so algorithm mistakes cannot be masked by phantom zeros.
func (m *Machine) Peek(comp, addr int) int64 {
	if comp < 0 || comp >= m.P() {
		m.RecordErr(fmt.Errorf("bsp: Peek out of range: component %d of %d", comp, m.P()))
		return 0
	}
	if addr < 0 || addr >= len(m.priv[comp]) {
		m.RecordErr(fmt.Errorf("bsp: Peek out of range: component %d cell %d of %d",
			comp, addr, len(m.priv[comp])))
		return 0
	}
	return m.priv[comp][addr]
}

// Ctx is the per-component handle inside a superstep.
type Ctx struct {
	comp int
	m    *Machine
	s    *engine.Sends[Message]
	// msgBuf is reusable per-component scratch for the batch send
	// methods; Ctx values persist across supersteps, so at steady state
	// batch sends allocate nothing.
	msgBuf []Message
}

// Comp returns this component's index.
func (c *Ctx) Comp() int { return c.comp }

// Priv returns this component's private memory. Mutating it is free-form
// local state manipulation; charge it explicitly with Work.
func (c *Ctx) Priv() []int64 { return c.m.priv[c.comp] }

// Incoming returns the messages delivered to this component at the start of
// the superstep (i.e. sent during the previous superstep), in deterministic
// order (sorted by sender, then arrival order at the sender).
func (c *Ctx) Incoming() []Message { return c.m.Route.Incoming(c.comp) } //lint:colescape-ok documented borrow point: the superstep inbox view is valid until the next Sync

// Work charges k units of local computation.
func (c *Ctx) Work(k int) {
	if k > 0 {
		c.s.AddWork(int64(k))
	}
}

// Send stages a message to component dst; it is delivered at the start of
// the next superstep.
func (c *Ctx) Send(dst int, tag, val int64) {
	if dst < 0 || dst >= c.m.P() {
		c.s.Fail(fmt.Errorf("bsp: component %d sends to invalid component %d", c.comp, dst))
		return
	}
	c.s.Stage(int32(dst), Message{From: c.comp, Tag: tag, Val: val})
}

// checkDsts validates a batch's destinations in one pass.
func (c *Ctx) checkDsts(dsts []int32) bool {
	for _, d := range dsts {
		if d < 0 || int(d) >= c.m.P() {
			c.s.Fail(fmt.Errorf("bsp: component %d sends to invalid component %d", c.comp, d))
			return false
		}
	}
	return true
}

// SendBatch stages len(dsts) messages in one bounds-checked batch:
// message i goes to dsts[i] carrying tag tags[i] and value vals[i]. A
// nil tags means all-zero tags. It stages exactly the message sequence
// of the equivalent Send loop, so costs and event streams are identical
// between the two.
func (c *Ctx) SendBatch(dsts []int32, tags, vals []int64) {
	if len(dsts) != len(vals) || (tags != nil && len(tags) != len(dsts)) {
		c.s.Fail(fmt.Errorf("bsp: component %d SendBatch column mismatch: %d destinations, %d tags, %d values",
			c.comp, len(dsts), len(tags), len(vals)))
		return
	}
	if !c.checkDsts(dsts) {
		return
	}
	c.msgBuf = c.msgBuf[:0]
	for i := range dsts {
		msg := Message{From: c.comp, Val: vals[i]}
		if tags != nil {
			msg.Tag = tags[i]
		}
		c.msgBuf = append(c.msgBuf, msg)
	}
	c.s.StageBatch(dsts, c.msgBuf)
}

// SendFanout stages the same (tag, val) message to every destination in
// dsts — the one-to-many shape of broadcast fan-out supersteps.
func (c *Ctx) SendFanout(dsts []int32, tag, val int64) {
	if !c.checkDsts(dsts) {
		return
	}
	c.msgBuf = c.msgBuf[:0]
	for range dsts {
		c.msgBuf = append(c.msgBuf, Message{From: c.comp, Tag: tag, Val: val})
	}
	c.s.StageBatch(dsts, c.msgBuf)
}

// Superstep runs one superstep: body is invoked once per component, in
// ascending order; at the barrier the h-relation is
// measured, the superstep is charged max(w, g·h, L), and staged messages
// are routed into the inboxes for the next superstep by the routing
// commit.
func (m *Machine) Superstep(body func(c *Ctx)) {
	if m.ctxs == nil {
		m.ctxs = make([]Ctx, m.P())
		for i := range m.ctxs {
			m.ctxs[i] = Ctx{comp: i, m: m}
		}
	}
	m.Route.Superstep(func(i int, s *engine.Sends[Message]) {
		c := &m.ctxs[i]
		c.s = s
		body(c)
	})
}

// bspModel binds the engine's message-routing runtime to the BSP cost
// rule and round definition.
type bspModel struct{ m *Machine }

func (md bspModel) Name() string   { return "BSP" }
func (md bspModel) Entity() string { return "component" }

// Render writes "from=F tag=T val=V" with strconv into one builder
// sized for the common small values.
func (md bspModel) Render(msg Message) string {
	var b strings.Builder
	b.Grow(32)
	var num [20]byte
	b.WriteString("from=")
	b.Write(strconv.AppendInt(num[:0], int64(msg.From), 10))
	b.WriteString(" tag=")
	b.Write(strconv.AppendInt(num[:0], msg.Tag, 10))
	b.WriteString(" val=")
	b.Write(strconv.AppendInt(num[:0], msg.Val, 10))
	return b.String()
}

// Snapshot and Restore implement engine.Snapshotter: superstep bodies
// mutate private memories free-form, so a fault checkpoint must capture
// them alongside the engine's inboxes — otherwise a rolled-back superstep
// would re-apply its private-state mutations on retry.
func (md bspModel) Snapshot() {
	m := md.m
	if m.ckPriv == nil {
		m.ckPriv = make([][]int64, len(m.priv))
	}
	for i, p := range m.priv {
		m.ckPriv[i] = append(m.ckPriv[i][:0], p...)
	}
}

// Restore implements engine.Snapshotter.
func (md bspModel) Restore() {
	for i := range md.m.priv {
		copy(md.m.priv[i], md.m.ckPriv[i])
	}
}

// PhaseCost charges max(w, g·h, L); a superstep is a round iff it routes
// an O(n/p)-relation and does O(gn/p + L) work.
func (md bspModel) PhaseCost(o engine.Outcome) cost.PhaseCost {
	pr := md.m.Params()
	w, h := o.MaxOps, o.MaxRW
	t := cost.Time(max(w, pr.G*h, pr.L))
	np := max(int64(md.m.N())/int64(pr.P), 1)
	isRound := h <= cost.RoundSlack*np &&
		w <= cost.RoundSlack*(pr.G*np)+pr.L
	return cost.PhaseCost{
		MaxOps:  w,
		MaxRW:   h,
		Time:    t,
		IsRound: isRound,
	}
}
