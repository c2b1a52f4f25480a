// Fixture: pooled-column borrows escaping via every sink class, plus
// the copy idioms and the reasoned allowlist that must stay silent.
package a

// store mirrors the engine's cell storage, whose mem field is pooled.
type store struct {
	mem  []int64 //repro:pooled
	free []int64
}

type MemCtx struct {
	m *store
}

// ReadBlock is a borrow point: it hands out an alias into pooled
// storage, so its own return is the first escape the analyzer sees.
func (c *MemCtx) ReadBlock(addr, k int) []int64 {
	return c.m.mem[addr : addr+k] // want `column sub-slice, derived from pooled engine storage, escapes the phase via return value`
}

// Data is the documented accessor exemption: reason-carrying allowlist,
// callers are policed at their use sites instead.
func (m *store) Data() []int64 {
	return m.mem //lint:colescape-ok documented borrow point: callers are policed at their use sites
}

type holder struct {
	ref []int64
}

var global []int64

// keep stores its second parameter beyond the call: the "e1" fact is
// recorded silently here and reported at tainted call sites.
func keep(h *holder, b []int64) {
	h.ref = b
}

func stash(c *MemCtx, h *holder, ch chan []int64) {
	b := c.ReadBlock(0, 4)
	h.ref = b  // want `"b", derived from pooled engine storage, escapes the phase via store to field ref`
	global = b // want `"b", derived from pooled engine storage, escapes the phase via store to package variable global`
	ch <- b    // want `"b", derived from pooled engine storage, escapes the phase via channel send`
	keep(h, b) // want `"b", derived from pooled engine storage, escapes the phase via call to keep, which retains its argument`
}

func leak(c *MemCtx) []int64 {
	b := c.ReadBlock(0, 4)
	return b // want `"b", derived from pooled engine storage, escapes the phase via return value`
}

// snapshot element-copies the borrow: copies are not escapes.
func snapshot(c *MemCtx) []int64 {
	b := c.ReadBlock(0, 4)
	out := make([]int64, 0, len(b))
	out = append(out, b...)
	return out
}

// sum ranges scalar cells out of the borrow: scalars are copies.
func sum(c *MemCtx) int64 {
	var s int64
	for _, v := range c.ReadBlock(0, 4) {
		s += v
	}
	return s
}

// spawn stashes a borrow from inside a worker closure: escape sinks are
// checked inside function literals too (each gets its own graph).
func spawn(c *MemCtx, h *holder, run func(func())) {
	run(func() {
		b := c.ReadBlock(0, 4)
		h.ref = b // want `"b", derived from pooled engine storage, escapes the phase via store to field ref`
	})
}

// recycle writes INTO a pooled field: pool management, not an escape
// (the barrier analyzer owns that contract).
func recycle(m *store, b []int64) {
	m.free = b
	_ = m.free
}

// A processor context's cursor holds its lane's columns: readAddrs is
// the read column, reads a scalar counter. A leaked read column is a
// borrow like the write column.
type cursor struct {
	reads     int64
	readAddrs []int32 //repro:pooled
	writes    []int32 //repro:pooled
}

func leakReads(c *cursor) []int32 {
	return c.readAddrs // want `field readAddrs, derived from pooled engine storage, escapes the phase via return value`
}

func leakWrites(c *cursor) []int32 {
	return c.writes // want `field writes, derived from pooled engine storage, escapes the phase via return value`
}

func readCount(c *cursor) int64 {
	return c.reads
}
