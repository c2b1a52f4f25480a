package engine

import (
	"errors"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"repro/internal/cost"
)

// laneModel is the smallest last-writer-wins MemModel, enough to drive a
// Mem machine's lanes from inside the package.
type laneModel struct{}

func (laneModel) Name() string     { return "LANE" }
func (laneModel) Entity() string   { return "processor" }
func (laneModel) Prefix() string   { return "lane" }
func (laneModel) Violation() error { return errors.New("lane: violation") }

func (laneModel) Apply(mem []int64, addrs []int32, vals []int64) {
	for i, j := 0, 0; i < len(addrs); {
		a, n, next, fill := RunFill(addrs, i)
		if fill {
			for k := range n {
				mem[int(a)+k] = vals[j]
			}
			j++
		} else {
			j += copy(mem[a:int(a)+n], vals[j:j+n])
		}
		i = next
	}
}

func (laneModel) Render(v int64) string { return strconv.FormatInt(v, 10) }

func (laneModel) PhaseCost(o Outcome) cost.PhaseCost {
	return cost.PhaseCost{MaxOps: o.MaxOps, MaxRW: o.MaxRW, Time: cost.Time(max(o.MaxRW, 1))}
}

func newLaneMachine(p int) *Mem[int64] {
	m := &Mem[int64]{}
	m.InitMem(laneModel{}, cost.Params{G: 1, P: p}, p, 2*p)
	return m
}

// TestLaneSpansSizedOnce pins that a lane reserves its span index at the
// dispatch width: a fresh machine's first ForAll(p) leaves exactly p
// spans of capacity, and narrower phases reuse that array.
func TestLaneSpansSizedOnce(t *testing.T) {
	const p = 300
	m := newLaneMachine(p)
	write := func(c *MemCtx[int64]) { c.Write(c.Proc(), 1) }
	m.ForAll(p, write)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	l := &m.lane
	if len(l.spans) != p || cap(l.spans) != p {
		t.Fatalf("after ForAll(%d): len, cap(spans) = %d, %d, want %d, %d", p, len(l.spans), cap(l.spans), p, p)
	}
	first := &l.spans[:1][0]
	for _, n := range []int{p / 2, 1, p} {
		m.ForAll(n, write)
		if len(l.spans) != n || cap(l.spans) != p || &l.spans[:1][0] != first {
			t.Fatalf("ForAll(%d) after ForAll(%d): len, cap(spans) = %d, %d, reallocated %v",
				n, p, len(l.spans), cap(l.spans), &l.spans[:1][0] != first)
		}
	}
}

// TestLaneColumnsSizedOnce pins the allocations of a new machine's first
// phase at p = 4096, one Read and one Write per processor. The lane
// reserves its read, write and value columns at the dispatch width along
// with its span index, so each is allocated once instead of regrown by
// append while the bodies run: 6 objects are the span index and the
// three columns, the merger's marks and the report's phase entry.
// Columns regrown by append took 53.
func TestLaneColumnsSizedOnce(t *testing.T) {
	const p, runs, want = 4096, 4, 6
	ms := make([]*Mem[int64], runs+1)
	for i := range ms {
		ms[i] = newLaneMachine(p)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		m := ms[next]
		next++
		m.ForAll(p, func(c *MemCtx[int64]) { c.Write(p+c.Proc(), c.Read(c.Proc())) })
	})
	for _, m := range ms {
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		c := m.lane.cur
		if cap(c.readAddrs) != p || cap(c.writes) != p || cap(c.writeVals) != p {
			t.Fatalf("cap(reads, writes, values) = %d, %d, %d, want %d each",
				cap(c.readAddrs), cap(c.writes), cap(c.writeVals), p)
		}
	}
	if got != want {
		t.Errorf("a new machine's first ForAll(%d) allocated %v objects, want %d", p, got, want)
	}
}

// TestLaneFailureLeavesNoEntries pins that a processor failing mid-body
// takes back what it recorded, so the lane's columns stay the exact
// concatenation of its spans.
func TestLaneFailureLeavesNoEntries(t *testing.T) {
	const p = 6
	m := newLaneMachine(p)
	m.ForAll(p, func(c *MemCtx[int64]) {
		i := c.Proc()
		c.Read(i)
		c.Write(p+i, int64(i))
		if i == 2 || i == 4 {
			c.Read(-1) // fails the body after two requests
			c.Write(p, 9)
		}
	})
	if m.Err() == nil {
		t.Fatal("phase with failing processors committed")
	}
	l := &m.lane
	c := &l.c
	var procs []int32
	r0, w0 := int32(0), int32(0)
	for _, s := range l.spans {
		procs = append(procs, s.proc)
		if s.r1 != r0+1 || s.w1 != w0+1 {
			t.Fatalf("span %+v does not follow [%d, %d): each processor recorded one read and one write", s, r0, w0)
		}
		if c.readAddrs[r0] != s.proc || c.writes[w0] != p+s.proc || c.writeVals[w0] != int64(s.proc) {
			t.Fatalf("span %+v holds read %d, write %d=%d", s, c.readAddrs[r0], c.writes[w0], c.writeVals[w0])
		}
		r0, w0 = s.r1, s.w1
	}
	if want := []int32{0, 1, 3, 5}; !slices.Equal(procs, want) {
		t.Fatalf("spans cover processors %v, want %v", procs, want)
	}
	if len(c.readAddrs) != int(r0) || len(c.writes) != int(w0) || len(c.writeVals) != int(w0) {
		t.Fatalf("columns hold %d reads, %d writes, %d values; the spans end at %d, %d",
			len(c.readAddrs), len(c.writes), len(c.writeVals), r0, w0)
	}
}

// TestLaneFailureDropsFill pins that a processor failing after a
// WriteFill takes back its fill's two column words and one value, so the
// fills of the processors after it in the lane still pair with their own
// values.
func TestLaneFailureDropsFill(t *testing.T) {
	const p, k = 6, 4
	m := newLaneMachine(p)
	m.Grow(p * k)
	m.ForAll(p, func(c *MemCtx[int64]) {
		i := c.Proc()
		c.WriteFill(k*i, k, int64(i))
		if i == 2 {
			c.Read(-1)
		}
	})
	if m.Err() == nil {
		t.Fatal("phase with a failing processor committed")
	}
	l := &m.lane
	c := &l.c
	var procs []int32
	w0 := int32(0)
	for j, s := range l.spans {
		procs = append(procs, s.proc)
		a, n, next, fill := RunFill(c.writes, int(w0))
		if next != int(s.w1) || a != k*s.proc || n != k || !fill || c.writeVals[j] != int64(s.proc) {
			t.Fatalf("span %+v holds fill (%d, %d, %t) ending at %d with value %d", s, a, n, fill, next, c.writeVals[j])
		}
		w0 = s.w1
	}
	if want := []int32{0, 1, 3, 4, 5}; !slices.Equal(procs, want) {
		t.Fatalf("spans cover processors %v, want %v", procs, want)
	}
	if len(c.writes) != int(w0) || len(c.writeVals) != len(l.spans) {
		t.Fatalf("columns hold %d write words and %d values; the spans end at %d and hold %d fills",
			len(c.writes), len(c.writeVals), w0, len(l.spans))
	}
}

// TestLaneWalkMatchesMerge pins the lane walk to the reference merge.
// Seeded phases of plain words (idle processors, duplicate requests,
// read+write clashes on half the phases, disjoint read and write cells
// on the rest, and packed writes on a third) give the same MergeStats,
// Viol included, from mergeLane on one long-lived merger as from a
// fresh MemMerger.Merge over colViews of the same lane.
func TestLaneWalkMatchesMerge(t *testing.T) {
	const cells, phases = 48, 600
	type req struct {
		write, bit bool
		a          int
	}
	r := rand.New(rand.NewPCG(1998, 34))
	var g MemMerger
	var clashes, clean int
	for i := range phases {
		p := 4 * (1 + r.IntN(10))
		clash, packed := r.IntN(2) == 0, r.IntN(3) == 0
		reqs := make([][]req, p)
		for pr := range reqs {
			for range r.IntN(5) {
				q := req{write: r.IntN(2) == 0, bit: r.IntN(2) == 0, a: r.IntN(cells)}
				if !clash {
					q.a &^= 1
					if q.write {
						q.a++
					}
				}
				reqs[pr] = append(reqs[pr], q)
				if r.IntN(4) == 0 {
					reqs[pr] = append(reqs[pr], q) // duplicate
				}
			}
		}
		var got, want MergeStats
		if packed {
			m := &BitMem{}
			if err := m.InitBits(laneModel{}, cost.Params{G: 1, P: p}, p, cells); err != nil {
				t.Fatal(err)
			}
			m.Phase(func(c *BitCtx) {
				for _, q := range reqs[c.Proc()] {
					if q.write {
						c.Write(q.a, q.bit)
					} else {
						c.Read(q.a)
					}
				}
			})
			got, want = walkAndMerge(&g, &m.lane, cells, p, true)
		} else {
			m := &Mem[int64]{}
			m.InitMem(laneModel{}, cost.Params{G: 1, P: p}, p, cells)
			m.Phase(func(c *MemCtx[int64]) {
				for _, q := range reqs[c.Proc()] {
					if q.write {
						c.Write(q.a, 1)
					} else {
						c.Read(q.a)
					}
				}
			})
			got, want = walkAndMerge(&g, &m.lane, cells, p, false)
		}
		if got != want {
			t.Fatalf("phase %d (p %d, packed %t): lane walk = %+v, Merge = %+v", i, p, packed, got, want)
		}
		if want.Viol >= 0 {
			clashes++
		} else {
			clean++
		}
	}
	if clashes < phases/4 || clean < phases/4 {
		t.Fatalf("%d clashing and %d clean phases of %d: the cases do not cover both", clashes, clean, phases)
	}
}

// walkAndMerge counts a phase's lane with mergeLane on g and with a
// fresh MemMerger.Merge over its colViews, and reports both answers.
func walkAndMerge[W, C any](g *MemMerger, l *lane[W, C], cells, p int, packed bool) (got, want MergeStats) {
	got = mergeLane(g, l, cells, p, packed)
	var ref MemMerger
	want = ref.Merge(MemMergeReq{
		Cells: cells, Packed: packed,
		Reads: colViews(nil, p, l, false), Writes: colViews(nil, p, l, true),
	}, 0, cells)
	return got, want
}

// TestMarksGrowByDoubling pins that the merger's marks grow only for the
// marks path, and then at least double when a machine's memory grows past
// them, so a machine that grows its memory every level does not
// reallocate them at every level.
func TestMarksGrowByDoubling(t *testing.T) {
	var g MemMerger
	g.begin(0, 1000, 1, true)
	if len(g.marks) != 0 {
		t.Fatalf("an ascending merge grew the marks to %d cells", len(g.marks))
	}
	g.begin(0, 100, 1, false)
	g.begin(0, 101, 1, false)
	if len(g.marks) < 200 {
		t.Fatalf("marks grew from 100 to %d cells for a 101-cell merge, want at least 200", len(g.marks))
	}
}

// TestBlockStagesOneRun pins the staging cost of the block calls: a
// k-cell ReadBlock, WriteFill, WriteBlock or ReadWord stages one run, two
// column words whatever k is (one plain word for k = 1), and the value
// column holds one value per WriteFill but k per WriteBlock.
func TestBlockStagesOneRun(t *testing.T) {
	const p = 8
	for _, k := range []int{1, 2, 16, 64, 1000} {
		words := 2 * p
		if k == 1 {
			words = p
		}
		m := &Mem[int64]{}
		m.InitMem(laneModel{}, cost.Params{G: 1, P: p}, p, 2*p*k)
		staged := func() (reads, writes, vals int) {
			c := m.lane.cur
			return len(c.readAddrs), len(c.writes), len(c.writeVals)
		}
		m.Phase(func(c *MemCtx[int64]) {
			pr := c.Proc()
			c.ReadBlock(pr*k, k)
			c.WriteFill(p*k+pr*k, k, int64(pr))
		})
		if reads, writes, vals := staged(); reads != words || writes != words || vals != p {
			t.Errorf("k = %d: ReadBlock and WriteFill staged %d read and %d write column words and %d values; want %d, %d and %d",
				k, reads, writes, vals, words, words, p)
		}
		block := make([]int64, k)
		m.Phase(func(c *MemCtx[int64]) { c.WriteBlock(p*k+c.Proc()*k, block) })
		if _, writes, vals := staged(); writes != words || vals != p*k {
			t.Errorf("k = %d: WriteBlock staged %d write column words and %d values; want %d and %d",
				k, writes, vals, words, p*k)
		}
		b := &BitMem{}
		if err := b.InitBits(laneModel{}, cost.Params{G: 1, P: p}, p, 64*p); err != nil {
			t.Fatal(err)
		}
		b.Phase(func(c *BitCtx) { c.ReadWord(64*c.Proc(), min(k, 64)) })
		if err := errors.Join(m.Err(), b.Err()); err != nil {
			t.Fatal(err)
		}
		if bitWords := len(b.lane.cur.readAddrs); bitWords != words {
			t.Errorf("k = %d: ReadWord staged %d column words; want %d", k, bitWords, words)
		}
	}
}
