// Package engine is a self-contained miniature of the real engine
// package (same type names, same sanctioned-writer contract) so the
// commitpurity fixture needs no cross-module imports.
package engine

// Core mirrors the shared lifecycle state.
type Core struct {
	failN int
	err   error
}

func (c *Core) Init() {
	c.failN = 0
	c.err = nil
}

func (c *Core) RunPhase() {
	c.failN++
}

func (c *Core) peek() int {
	return c.failN // clean: reads are unrestricted
}

func (c *Core) poke() {
	c.failN = 7 // want `engine\.Core\.failN written in poke, outside the commit entry points`
}

// Mem mirrors the shared-memory engine; Core is embedded as in
// the real package, so promoted writes must attribute to Core.
type Mem struct {
	Core
	mem []int64
}

func (m *Mem) InitMem(n int) {
	m.mem = make([]int64, n)
}

func (m *Mem) Phase() {
	// Function literals inherit the enclosing declaration's identity:
	// the real commit pipeline dispatches through closures.
	apply := func(i int, v int64) { m.mem[i] = v }
	apply(0, 1)
}

func (m *Mem) debugSet(i int, v int64) {
	m.mem[i] = v // want `engine\.Mem\.mem written in debugSet, outside the commit entry points`
}

func (m *Mem) promotedWrite() {
	m.failN = 3 // want `engine\.Core\.failN written in promotedWrite, outside the commit entry points`
}

func (m *Mem) bump() {
	m.failN++ // want `engine\.Core\.failN written in bump, outside the commit entry points`
}

func (m *Mem) sanctioned() {
	//lint:commitpurity-ok fixture exercises the allowlist
	m.mem[0] = 2
}

// MemCtx mirrors the per-processor request recorder with its
// struct-of-arrays columns; the batch recorders (ReadBlock, WriteBatch,
// Submit, …) are sanctioned writers exactly like their per-cell twins.
type MemCtx struct {
	reads      int64
	readAddrs  []int32
	writeAddrs []int32
	writeVals  []int64
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
	c.writeAddrs = append(c.writeAddrs, addrs...)
	c.writeVals = append(c.writeVals, vals...)
}

func (c *MemCtx) Submit(reads, writes []int32, vals []int64) {
	c.reads += int64(len(reads))
	c.readAddrs = append(c.readAddrs, reads...)
	c.writeAddrs = append(c.writeAddrs, writes...)
	c.writeVals = append(c.writeVals, vals...)
}

func (c *MemCtx) bulkPoke(addrs []int32) {
	c.readAddrs = append(c.readAddrs, addrs...) // want `engine\.MemCtx\.readAddrs written in bulkPoke, outside the commit entry points`
}

// begin and clearCols are the lane cursor's sanctioned setup: a lane's
// one context serves each processor of its chunk in turn.
func (c *MemCtx) begin() {
	c.reads = 0
}

func (c *MemCtx) clearCols() {
	c.readAddrs = c.readAddrs[:0]
}

// laneLog mirrors a lane's span index, written only by reset and note.
type laneLog struct {
	spans []int32
	mOp   int64
}

func (l *laneLog) reset() {
	l.spans = l.spans[:0]
}

func (l *laneLog) note(proc int32, ops int64) {
	l.spans = append(l.spans, proc)
	l.mOp = max(l.mOp, ops)
}

func (l *laneLog) forge(proc int32) {
	l.spans = append(l.spans, proc) // want `engine\.laneLog\.spans written in forge, outside the commit entry points`
}

func (l *laneLog) sneak() {
	l.mOp = 9        // want `engine\.laneLog\.mOp written in sneak, outside the commit entry points`
	(l.spans)[0] = 1 // want `engine\.laneLog\.spans written in sneak, outside the commit entry points`
}

// BitMem and BitCtx mirror the bit-packed engine: word-level storage,
// packed write column, the same writer contract.
type BitMem struct {
	Core
	words []uint64
	lane  laneLog
}

func (m *BitMem) InitBits(nwords int) {
	m.words = make([]uint64, nwords)
}

func (m *BitMem) SetBit(addr int) {
	m.words[addr>>6] |= 1 << (uint(addr) & 63)
}

func (m *BitMem) commit(addr int) {
	// commit both applies packed writes and resets a lane: clean.
	m.words[addr>>6] &^= 1 << (uint(addr) & 63)
	m.lane.reset()
}

func (m *BitMem) hotPatch(addr int) {
	m.words[addr>>6] = 0            // want `engine\.BitMem\.words written in hotPatch, outside the commit entry points`
	m.lane.spans = m.lane.spans[:0] // want `engine\.laneLog\.spans written in hotPatch, outside the commit entry points`
}

type BitCtx struct {
	wrs    int64
	writes []int32
}

func (c *BitCtx) Write(addr int32, bit bool) {
	c.wrs++
	p := addr << 1
	if bit {
		p |= 1
	}
	c.writes = append(c.writes, p)
}

func (c *BitCtx) replay(ws []int32) {
	c.writes = ws // want `engine\.BitCtx\.writes written in replay, outside the commit entry points`
}

// Sends mirrors the routing-side stager; StageBatch is the sanctioned
// columnar twin of Stage.
type Sends struct {
	dsts []int32
	msgs []int64
}

func (s *Sends) Stage(d int32, msg int64) {
	s.dsts = append(s.dsts, d)
	s.msgs = append(s.msgs, msg)
}

func (s *Sends) StageBatch(dsts []int32, msgs []int64) {
	s.dsts = append(s.dsts, dsts...)
	s.msgs = append(s.msgs, msgs...)
}

func (s *Sends) inject(d int32, msg int64) {
	s.dsts = append(s.dsts, d)   // want `engine\.Sends\.dsts written in inject, outside the commit entry points`
	s.msgs = append(s.msgs, msg) // want `engine\.Sends\.msgs written in inject, outside the commit entry points`
}

// helper is not a protected type: its fields may be written anywhere.
type helper struct {
	n int
}

func (h *helper) anywhere() {
	h.n++
	h.n = 12
}
