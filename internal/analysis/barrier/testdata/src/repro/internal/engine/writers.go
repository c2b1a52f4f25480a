// Package engine is a self-contained miniature of the real engine
// package (same type names, same contracts) so the barrier fixture needs
// no cross-module imports. It lives at an internal/engine import path
// because the analyzer treats types declared there as engine state.
// It exercises the sanctioned-writer rule; the fixtures at
// observers/internal/engine and inject/internal/engine exercise the
// read-only observers and the single injector consult.
package engine

// Core mirrors the shared lifecycle state.
type Core struct {
	failN int
	err   error
	cells int
}

func (c *Core) Init() {
	c.failN = 0
	c.err = nil
}

func (c *Core) runPhase() {
	c.failN++
}

func (c *Core) peek() int {
	return c.failN // clean: reads are unrestricted
}

func (c *Core) poke() {
	c.failN = 7 // want `engine\.Core\.failN written in poke, outside the commit entry points`
}

// store mirrors the storage a processor context reads; Core is embedded
// as in the real package, so promoted writes must attribute to Core.
type store struct {
	Core
	mem []int64
}

// shared mirrors the shared-memory engine both stores embed; writes
// through it attribute to the type declaring the field.
type shared struct {
	store
	lanes []*lane
	ck    []int64
}

func (m *shared) init(n int) {
	m.mem = make([]int64, n)
}

func (m *shared) Grow(n int) {
	m.cells = n
	m.mem = append(m.mem, make([]int64, n)...)
}

func (m *shared) ForAll() {
	// Function literals inherit the enclosing declaration's identity:
	// the real phase dispatches its chunks through closures.
	reset := func(i int) { m.lanes[i] = nil }
	reset(0)
}

func (m *shared) debugSet(i int, v int64) {
	m.mem[i] = v // want `engine\.store\.mem written in debugSet, outside the commit entry points`
}

func (m *shared) promotedWrite() {
	m.failN = 3 // want `engine\.Core\.failN written in promotedWrite, outside the commit entry points`
}

func (m *shared) bump() {
	m.failN++ // want `engine\.Core\.failN written in bump, outside the commit entry points`
}

func (m *shared) stash() {
	m.ck = m.mem // want `engine\.shared\.ck written in stash, outside the commit entry points`
}

func (m *shared) sanctioned() {
	//lint:barrier-ok fixture exercises the allowlist
	m.mem[0] = 2
}

// Mem and BitMem mirror the two cell stores: only their codecs and
// initializers touch the engine state.
type Mem struct {
	shared
	model int
}

func (m *Mem) InitMem() {
	m.model = 1
}

func (m *Mem) corrupt(a int) {
	m.mem[a] = 0 // clean: corrupt is a sanctioned store writer
}

func (m *Mem) remodel() {
	m.model = 2 // want `engine\.Mem\.model written in remodel, outside the commit entry points`
}

type BitMem struct {
	shared
}

func (m *BitMem) SetBit(addr int) {
	m.mem[addr>>6] |= 1 << (uint(addr) & 63)
}

func (m *BitMem) hotPatch(addr int) {
	m.mem[addr>>6] = 0 // want `engine\.store\.mem written in hotPatch, outside the commit entry points`
}

// cursor mirrors the store-independent half of a processor context with
// its struct-of-arrays columns; the batch recorders (ReadBlock,
// WriteBatch, …) are sanctioned writers exactly like their
// per-cell twins.
type cursor struct {
	reads     int64
	readAddrs []int32
	writes    []int32
	writeVals []int64
}

type MemCtx struct {
	cursor
}

func (c *MemCtx) Read(a int32) {
	c.reads++
	c.readAddrs = append(c.readAddrs, a)
}

func (c *MemCtx) ReadBlock(a int32, k int) {
	c.reads += int64(k)
	for i := 0; i < k; i++ {
		c.readAddrs = append(c.readAddrs, a+int32(i))
	}
}

func (c *MemCtx) WriteBatch(addrs []int32, vals []int64) {
	c.writes = append(c.writes, addrs...)
	c.writeVals = append(c.writeVals, vals...)
}

func (c *MemCtx) bulkPoke(addrs []int32) {
	c.readAddrs = append(c.readAddrs, addrs...) // want `engine\.cursor\.readAddrs written in bulkPoke, outside the commit entry points`
}

type BitCtx struct {
	cursor
}

func (c *BitCtx) Write(addr int32, bit bool) {
	p := addr << 1
	if bit {
		p |= 1
	}
	c.writes = append(c.writes, p)
}

func (c *BitCtx) replay(ws []int32) {
	c.writes = ws // want `engine\.cursor\.writes written in replay, outside the commit entry points`
}

// lane mirrors a machine's request lane, written only by its run loop
// (and init at creation).
type lane struct {
	cur   *cursor
	spans []int32
	mOp   int64
}

func (l *lane) run(proc int32, ops int64) {
	l.cur.reads = 0
	l.spans = append(l.spans, proc)
	l.mOp = max(l.mOp, ops)
}

func (l *lane) forge(proc int32) {
	l.spans = append(l.spans, proc) // want `engine\.lane\.spans written in forge, outside the commit entry points`
}

func (l *lane) sneak() {
	l.mOp = 9        // want `engine\.lane\.mOp written in sneak, outside the commit entry points`
	(l.spans)[0] = 1 // want `engine\.lane\.spans written in sneak, outside the commit entry points`
}

// Sends mirrors the routing-side stager, a cursor under its own name;
// StageBatch is the sanctioned columnar twin of Stage.
type Sends struct {
	c cursor
}

func (s *Sends) Stage(d int32, msg int64) {
	s.c.writes = append(s.c.writes, d)
	s.c.writeVals = append(s.c.writeVals, msg)
}

func (s *Sends) StageBatch(dsts []int32, msgs []int64) {
	s.c.writes = append(s.c.writes, dsts...)
	s.c.writeVals = append(s.c.writeVals, msgs...)
}

func (s *Sends) inject(d int32, msg int64) {
	s.c.writes = append(s.c.writes, d)         // want `engine\.cursor\.writes written in inject, outside the commit entry points`
	s.c.writeVals = append(s.c.writeVals, msg) // want `engine\.cursor\.writeVals written in inject, outside the commit entry points`
}

// Route mirrors the routing engine: delivery is its barrier's apply.
type Route struct {
	Core
	inbox [][]int64
}

func (r *Route) apply() {
	r.inbox = nil
}

func (r *Route) drop() {
	r.inbox[0] = nil // want `engine\.Route\.inbox written in drop, outside the commit entry points`
}

// helper is not a protected type: its fields may be written anywhere.
type helper struct {
	n int
}

func (h *helper) anywhere() {
	h.n++
	h.n = 12
}
