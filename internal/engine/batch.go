package engine

import "fmt"

// Batch submission API of the shared-memory and routing engines.
//
// The per-phase request buffers are struct-of-arrays (parallel address
// and value columns — see MemCtx), so enqueuing a
// whole slice of requests is a bounds-check pass plus one append per
// column. The per-cell Read/Write calls remain as thin wrappers over the
// same columns; a batch call records exactly the request sequence the
// equivalent per-cell loop would have recorded (same addresses, same
// order, same charges), which is what keeps cost reports and observer
// event streams byte-identical between the two APIs. A block call stages
// its cells as one run (see "Request columns" in lane.go), which stands
// for that sequence.
//
// Model discipline is unchanged: batch reads return start-of-phase
// contents, batch writes commit at the barrier under the model's Apply,
// and requests must be a function of start-of-phase state.

// growCap grows s to capacity ≥ len(s)+k without the temporary slice an
// append(s, make([]T, k)...) would allocate.
func growCap[T any](s []T, k int) []T {
	if need := len(s) + k; need > cap(s) {
		t := make([]T, len(s), max(need, 2*cap(s)))
		copy(t, s)
		return t
	}
	return s
}

// ReadBlock reads the k consecutive cells [addr, addr+k), charging k
// reads and staging one run, and returns their start-of-phase contents.
// The returned slice aliases the shared memory, which does not change
// during a phase (all writes commit at the barrier), so it is exactly the
// snapshot a per-cell read loop would have observed; callers must not
// retain it across the phase boundary.
func (c *MemCtx[V]) ReadBlock(addr, k int) []V {
	if k < 0 || addr < 0 || addr+k > len(c.m.mem) {
		c.failf("read block out of range: cells [%d,%d) of %d", addr, addr+k, len(c.m.mem))
		return nil
	}
	c.reads += int64(k)
	c.readAddrs, c.runs = appendRun(c.readAddrs, int32(addr), k), c.runs || k > 1
	return c.m.mem[addr : addr+k] //lint:colescape-ok documented borrow point: ReadBlock returns a phase-scoped view; callers are policed at their use sites
}

// ReadBatch reads the given cells (a gather), charging one read each,
// and appends their start-of-phase contents to dst in order.
func (c *MemCtx[V]) ReadBatch(addrs []int32, dst []V) []V {
	if !c.inRange("read", addrs) {
		return dst
	}
	c.reads += int64(len(addrs))
	c.readAddrs = append(c.readAddrs, addrs...)
	dst = growCap(dst, len(addrs))
	for _, a := range addrs {
		dst = append(dst, c.m.mem[a])
	}
	return dst
}

// inRange reports whether every address lies in the memory, failing the
// processor with the first that does not.
func (c *MemCtx[V]) inRange(what string, addrs []int32) bool {
	for _, a := range addrs {
		if a < 0 || int(a) >= len(c.m.mem) {
			c.failf("%s out of range: cell %d of %d", what, a, len(c.m.mem))
			return false
		}
	}
	return true
}

// WriteBlock queues writes of vals to the consecutive cells
// [addr, addr+len(vals)), charging one write each and staging one run.
func (c *MemCtx[V]) WriteBlock(addr int, vals []V) {
	k := len(vals)
	if addr < 0 || addr+k > len(c.m.mem) {
		c.failf("write block out of range: cells [%d,%d) of %d", addr, addr+k, len(c.m.mem))
		return
	}
	c.wrs += int64(k)
	c.writes, c.runs = appendRun(c.writes, int32(addr), k), c.runs || k > 1
	c.writeVals = append(c.writeVals, vals...)
}

// WriteFill queues writes of val to the k consecutive cells
// [addr, addr+k), charging k writes and staging one fill run with one
// value.
func (c *MemCtx[V]) WriteFill(addr, k int, val V) {
	if k < 0 || addr < 0 || addr+k > len(c.m.mem) {
		c.failf("write fill out of range: cells [%d,%d) of %d", addr, addr+k, len(c.m.mem))
		return
	}
	if k == 0 {
		return
	}
	c.wrs += int64(k)
	c.writes, c.runs = appendFill(c.writes, int32(addr), k), c.runs || k > 1
	c.writeVals = append(c.writeVals, val)
}

// WriteBatch queues writes of vals[i] to addrs[i] (a scatter), charging
// one write each.
func (c *MemCtx[V]) WriteBatch(addrs []int32, vals []V) {
	if len(addrs) != len(vals) {
		c.failf("write batch column mismatch: %d addresses, %d values", len(addrs), len(vals))
		return
	}
	if !c.inRange("write", addrs) {
		return
	}
	c.wrs += int64(len(addrs))
	c.writes = append(c.writes, addrs...)
	c.writeVals = append(c.writeVals, vals...)
}

// StageBatch queues len(dsts) messages in one append per column:
// msgs[i] goes to dsts[i]. Destination validation remains the adapter's
// job, exactly as for Stage.
func (s *Sends[M]) StageBatch(dsts []int32, msgs []M) {
	if len(dsts) != len(msgs) {
		s.Fail(fmt.Errorf("engine: StageBatch column mismatch: %d destinations, %d messages",
			len(dsts), len(msgs)))
		return
	}
	s.c.wrs += int64(len(dsts))
	s.c.writes = append(s.c.writes, dsts...)
	s.c.writeVals = append(s.c.writeVals, msgs...)
}
