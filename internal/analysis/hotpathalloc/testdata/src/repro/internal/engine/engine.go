// Fixture: a miniature commit engine exercising the hot-root detection
// (commit/Submit/StageBatch/observer methods marked //repro:hot),
// dispatch through the package's own interfaces, and every
// allocation-site class.
package engine

import "fmt"

type Mem struct {
	mem   []int64
	rAddr []int32
	err   error
}

// source mirrors the barrier's column source: commit reaches the
// stores' codecs only through it.
type source interface{ apply() }

// commit is a hot root: everything it reaches must not allocate.
//
//repro:hot
func (m *Mem) commit(workers int, src source) {
	src.apply()
	for _, a := range m.rAddr {
		m.mem[a] = 0
	}
	buf := make([]int64, 8) // want `make allocates .* reachable from Mem\.commit`
	_ = buf
	go m.drain() // want `go statement allocates`
	m.apply()
}

// apply is hot transitively (called from commit).
func (m *Mem) apply() {
	tmp := []int32{1, 2} // want `slice literal allocates .*Mem\.apply is reachable from Mem\.commit`
	_ = tmp
}

func (m *Mem) drain() {}

// Bits is a second store: its apply is hot through the interface call.
type Bits struct{ words []uint64 }

func (b *Bits) apply() {
	b.words = append(b.words, 0) // staged: a pooled field
	scratch := make([]uint64, 4) // want `make allocates .*Bits\.apply is reachable from Mem\.commit`
	_ = scratch
}

// flush shares no name with a source method: it stays cold.
func (b *Bits) flush() []uint64 { return make([]uint64, 4) }

// Request shares an observer method's name but carries no //repro:hot
// marker: it stays cold.
func (b *Bits) Request(phase int) []uint64 { return make([]uint64, 4) }

// Submit is a hot root; the abort path's formatting is the documented,
// reason-carrying exemption — the directive must silence the finding
// and keep callers unflagged.
//
//repro:hot
func (m *Mem) Submit(b []int32) {
	if len(b) == 0 {
		m.err = fmt.Errorf("empty batch") //lint:hotpathalloc-ok abort path: formats once, then the machine is poisoned
	}
	m.rAddr = append(m.rAddr, b...) // staged: the pooled column grows to its high-water mark
}

// StageBatch shows the staged-append classification: appends to fields
// and parameters are staged, appends to fresh locals are not.
//
//repro:hot
func (m *Mem) StageBatch(dsts []int32, scratch []int32) {
	m.rAddr = append(m.rAddr, dsts...)
	scratch = append(scratch, dsts...)
	_ = scratch
	var spill []int32
	spill = append(spill, dsts...) // want `append to a non-staged slice allocates`
	_ = spill
	local := m.rAddr[:0]
	local = append(local, dsts...) // taint: derived from a pooled column, staged
	_ = local
}

// PhaseStart is an engine observer root: boxing into an interface
// parameter allocates.
//
//repro:hot
func (m *Mem) PhaseStart(phase int) {
	box(phase) // want `implicit interface conversion \(boxing\) allocates`
}

func box(v any) {}

// PhaseEnd is a hot root, but its dead tail is skipped via the CFG.
//
//repro:hot
func (m *Mem) PhaseEnd() {
	return
	_ = make([]int64, 1) // dead code: no finding
}

// cold is not reachable from any root: allocation is fine here.
func cold() []int64 {
	return make([]int64, 16)
}
