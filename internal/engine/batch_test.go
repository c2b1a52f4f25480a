package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// runObserved runs phases on a fresh 4-processor machine of the given
// size and returns the event stream and cost report — the two artifacts
// the batch API must reproduce byte-for-byte.
func runObserved(t *testing.T, cells int, phases func(m *memMachine)) ([]string, string) {
	t.Helper()
	m := newMemMachine(t, 4, cells, 1)
	ev := &engine.EventLog{}
	m.AddObserver(ev)
	for i := range m.Data() {
		m.Data()[i] = int64(i)
	}
	phases(m)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	var b strings.Builder
	for _, pc := range rep.Phases {
		fmt.Fprintf(&b, "%+v\n", pc)
	}
	var img strings.Builder
	fmt.Fprint(&img, m.Data())
	return append(ev.Lines(), img.String()), b.String()
}

// TestBatchPerCellEquivalence is the core contract of the batch API: a
// batch call records exactly the request sequence of the equivalent
// per-cell loop, so event streams, charged costs and the committed
// memory are identical. Blocks of k = 0, 1, 2 and 64 cells cover the
// empty block, the lone plain word and runs; the read blocks overlap
// pairwise and the write blocks of the second phase collide, so the
// runs' contention is counted across processors.
func TestBatchPerCellEquivalence(t *testing.T) {
	for _, k := range []int{0, 1, 2, 64} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cells := 8*k + 16
			perCell := func(m *memMachine) {
				m.Phase(func(c *engine.MemCtx[int64]) {
					p := c.Proc()
					for i := 0; i < k; i++ {
						c.Read(p/2*k + i)
					}
					for i := 0; i < k; i++ {
						c.Write(4*k+p*k+i, int64(100+p))
					}
				})
				m.Phase(func(c *engine.MemCtx[int64]) {
					p := c.Proc()
					for i := 0; i < k; i++ {
						c.Write(4*k+p/2*k+i, int64(10*p+i))
					}
				})
				m.Phase(func(c *engine.MemCtx[int64]) {
					c.Read(0)
					c.Read(5)
					c.Write(15, int64(c.Proc()))
				})
			}
			batched := func(m *memMachine) {
				m.Phase(func(c *engine.MemCtx[int64]) {
					p := c.Proc()
					c.ReadBlock(p/2*k, k)
					c.WriteFill(4*k+p*k, k, int64(100+p))
				})
				m.Phase(func(c *engine.MemCtx[int64]) {
					p := c.Proc()
					vals := make([]int64, k)
					for i := range vals {
						vals[i] = int64(10*p + i)
					}
					c.WriteBlock(4*k+p/2*k, vals)
				})
				m.Phase(func(c *engine.MemCtx[int64]) {
					c.ReadBatch([]int32{0, 5}, nil)
					c.WriteBatch([]int32{15}, []int64{int64(c.Proc())})
				})
			}
			wantEv, wantRep := runObserved(t, cells, perCell)
			gotEv, gotRep := runObserved(t, cells, batched)
			if !reflect.DeepEqual(wantEv, gotEv) {
				t.Errorf("event streams or memory differ:\nper-cell:\n%s\nbatched:\n%s",
					strings.Join(wantEv, "\n"), strings.Join(gotEv, "\n"))
			}
			if wantRep != gotRep {
				t.Errorf("cost reports differ:\nper-cell:\n%s\nbatched:\n%s", wantRep, gotRep)
			}
		})
	}
}

func TestReadBlockSnapshotAndGather(t *testing.T) {
	m := newMemMachine(t, 2, 8, 1)
	copy(m.Data(), []int64{10, 11, 12, 13, 14, 15, 16, 17})
	var block []int64
	var gathered []int64
	m.Phase(func(c *engine.MemCtx[int64]) {
		if c.Proc() != 0 {
			return
		}
		block = append([]int64(nil), c.ReadBlock(2, 3)...)
		gathered = c.ReadBatch([]int32{7, 1, 7}, nil)
		c.Write(0, 99)
	})
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{12, 13, 14}; !reflect.DeepEqual(block, want) {
		t.Errorf("ReadBlock(2,3) = %v, want %v", block, want)
	}
	if want := []int64{17, 11, 17}; !reflect.DeepEqual(gathered, want) {
		t.Errorf("ReadBatch = %v, want %v", gathered, want)
	}
	if got := m.Data()[0]; got != 99 {
		t.Errorf("cell 0 after commit = %d, want 99", got)
	}
}

func TestWriteBatchScatterAndWinner(t *testing.T) {
	m := newMemMachine(t, 3, 8, 1)
	m.Phase(func(c *engine.MemCtx[int64]) {
		p := int64(c.Proc())
		// All processors scatter to the same cells: the winner at each
		// cell is the last write of the highest-numbered processor.
		c.WriteBatch([]int32{4, 6}, []int64{10 * p, 10*p + 1})
	})
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := m.Data()[4]; got != 20 {
		t.Errorf("cell 4 = %d, want 20", got)
	}
	if got := m.Data()[6]; got != 21 {
		t.Errorf("cell 6 = %d, want 21", got)
	}
	// Write contention 3 at both cells must be charged.
	if got := m.Report().Phases[0].Contention; got != 3 {
		t.Errorf("contention = %d, want 3", got)
	}
}

func TestBatchBoundsAndMismatch(t *testing.T) {
	cases := []struct {
		name string
		body func(c *engine.MemCtx[int64])
		want string
	}{
		{"read block", func(c *engine.MemCtx[int64]) { c.ReadBlock(6, 4) },
			"read block out of range: cells [6,10) of 8"},
		{"read block negative", func(c *engine.MemCtx[int64]) { c.ReadBlock(-1, 2) },
			"read block out of range"},
		{"read batch", func(c *engine.MemCtx[int64]) { c.ReadBatch([]int32{3, 8}, nil) },
			"read out of range: cell 8 of 8"},
		{"write block", func(c *engine.MemCtx[int64]) { c.WriteBlock(7, []int64{1, 2}) },
			"write block out of range: cells [7,9) of 8"},
		{"write fill", func(c *engine.MemCtx[int64]) { c.WriteFill(-2, 1, 5) },
			"write fill out of range"},
		{"write batch mismatch", func(c *engine.MemCtx[int64]) { c.WriteBatch([]int32{1, 2}, []int64{7}) },
			"write batch column mismatch: 2 addresses, 1 values"},
		{"write batch range", func(c *engine.MemCtx[int64]) { c.WriteBatch([]int32{9}, []int64{7}) },
			"write out of range: cell 9 of 8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMemMachine(t, 2, 8, 1)
			m.Phase(func(c *engine.MemCtx[int64]) {
				if c.Proc() == 0 {
					tc.body(c)
				}
			})
			err := m.Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
			if m.Report().NumPhases() != 0 {
				t.Errorf("failed phase was charged: NumPhases = %d", m.Report().NumPhases())
			}
		})
	}
}

// TestBatchViolationDetection: a cell read via a batch and written via a
// batch in the same phase must abort exactly like its per-cell twin.
func TestBatchViolationDetection(t *testing.T) {
	m := newMemMachine(t, 2, 8, 1)
	m.Phase(func(c *engine.MemCtx[int64]) {
		if c.Proc() == 0 {
			c.ReadBlock(2, 3)
		} else {
			c.WriteBatch([]int32{3}, []int64{1})
		}
	})
	err := m.Err()
	if err == nil || !strings.Contains(err.Error(), "cell 3 both read and written in phase 0") {
		t.Fatalf("err = %v, want violation at cell 3", err)
	}
}

func TestStageBatchMismatch(t *testing.T) {
	m := newRouteMachine(t, 2, 1)
	m.Superstep(func(i int, s *engine.Sends[int64]) {
		s.StageBatch([]int32{0, 1}, []int64{5})
	})
	err := m.Err()
	if err == nil || !strings.Contains(err.Error(), "StageBatch column mismatch: 2 destinations, 1 messages") {
		t.Fatalf("err = %v, want StageBatch mismatch", err)
	}
}

func TestStageBatchEquivalence(t *testing.T) {
	run := func(batch bool) ([]string, [][]int64) {
		m := newRouteMachine(t, 3, 1)
		ev := &engine.EventLog{}
		m.AddObserver(ev)
		m.Superstep(func(i int, s *engine.Sends[int64]) {
			s.AddWork(1)
			if batch {
				s.StageBatch([]int32{int32((i + 1) % 3), int32((i + 2) % 3)},
					[]int64{int64(10 + i), int64(20 + i)})
			} else {
				s.Stage(int32((i+1)%3), int64(10+i))
				s.Stage(int32((i+2)%3), int64(20+i))
			}
		})
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		in := make([][]int64, 3)
		for i := range in {
			in[i] = append([]int64(nil), m.Incoming(i)...)
		}
		return ev.Lines(), in
	}
	evCell, inCell := run(false)
	evBatch, inBatch := run(true)
	if !reflect.DeepEqual(evCell, evBatch) {
		t.Errorf("event streams differ:\nper-send:\n%s\nbatched:\n%s",
			strings.Join(evCell, "\n"), strings.Join(evBatch, "\n"))
	}
	if !reflect.DeepEqual(inCell, inBatch) {
		t.Errorf("inboxes differ: %v vs %v", inCell, inBatch)
	}
}

// TestBatchSteadyStateAllocs pins the columnar promise: a phase that
// submits large batches reuses the struct-of-arrays columns and commit
// scratch after warm-up, under both barriers, so allocations stay flat
// regardless of the per-processor request volume.
func TestBatchSteadyStateAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p, k = 16, 128
		m := newMemMachine(t, p, 2*p*k, workers)
		body := func(c *engine.MemCtx[int64]) {
			pr := c.Proc()
			c.ReadBlock(pr*k, k)
			c.WriteFill(p*k+pr*k, k, int64(pr))
		}
		m.Phase(body)
		m.Phase(body)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		checkWarmAllocs(t, warmPhaseAllocs, func() { m.Phase(body) })
	})
}

// TestDescendingRunPhaseAllocs pins the ascending merge's give-up path:
// a phase whose processors read one plain cell and then a two-cell block
// stages a run, so the barrier tries the ascending walk, which gives up
// at processor 1's descent. Once warm, that phase must allocate nothing,
// as the same phase without the plain read (which never gives up) does:
// the walk keeps the read-interval scratch it grew before giving up.
func TestDescendingRunPhaseAllocs(t *testing.T) {
	forEachBarrier(t, func(t *testing.T, workers int) {
		const p = 64
		for _, body := range []func(c *engine.MemCtx[int64]){
			func(c *engine.MemCtx[int64]) { c.ReadBlock(p+2*c.Proc(), 2) },
			func(c *engine.MemCtx[int64]) {
				c.Read(c.Proc())
				c.ReadBlock(p+2*c.Proc(), 2)
			},
		} {
			m := newMemMachine(t, p, 3*p, workers)
			m.Phase(body)
			m.Phase(body)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			checkWarmAllocs(t, warmPhaseAllocs, func() { m.Phase(body) })
		}
	})
}
