package engine

import (
	"errors"
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
func (laneModel) Grain() int       { return 1 }

func (laneModel) Apply(mem []int64, addrs []int32, vals []int64) {
	for j, a := range addrs {
		mem[a] = vals[j]
	}
}

func (laneModel) Render(v int64) string { return strconv.FormatInt(v, 10) }

func (laneModel) PhaseCost(o Outcome) cost.PhaseCost {
	return cost.PhaseCost{MaxOps: o.MaxOps, MaxRW: o.MaxRW, Time: cost.Time(max(o.MaxRW, 1))}
}

func newLaneMachine(p int) *Mem[int64] {
	m := &Mem[int64]{}
	m.InitMem(laneModel{}, cost.Params{G: 1, P: p}, p, 1, 2*p)
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
	l := m.lanes[0]
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
	l := m.lanes[0]
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

// TestMarksGrowByDoubling pins that the merger's marks at least double
// when a machine's memory grows past them, so a machine that grows its
// memory every level does not reallocate them at every level.
func TestMarksGrowByDoubling(t *testing.T) {
	var g MemMerger
	g.begin(0, 100, 1)
	g.begin(0, 101, 1)
	if len(g.marks) < 200 {
		t.Fatalf("marks grew from 100 to %d cells for a 101-cell merge, want at least 200", len(g.marks))
	}
}
