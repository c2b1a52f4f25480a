package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
)

// FuzzBarrierDifferential runs one random phase program through every
// way of committing it and demands byte-identical results. The configs
// are:
//
//   - the column barrier at Workers=1 and Workers=4, counting with
//     MemMerger/RouteMerger in process;
//   - the same barrier with each memory phase run as ForAll over the
//     prefix of processors that have requests, at Workers=4, so idle
//     processors past the prefix are never dispatched;
//   - a Backend that answers with MemMerger/RouteMerger over two cell
//     ranges, the way proc rank workers split the space, at Workers=1
//     and Workers=4;
//   - naiveBackend, an independent map-based reading of the paper's §2
//     rules that shares no code with the engine, so a wrong rule in
//     MemMerger/RouteMerger cannot pass by agreeing with itself.
//
// Programs mix per-cell and batch submission, block calls of widths 0
// to 64 (one run each in the request columns), duplicate requests,
// read+write clashes, sparse phases with most processors idle, packed
// bits and fan-in sends. Ascending phases (see ascendNibble) lay
// processor i's blocks at i·stride, so naiveBackend checks the merge's
// ascending path as well as its marks. Each program runs on Mem, BitMem and Route,
// once clean and once under a seeded fault plan (transient memory and
// message faults, degraded crashes, injected violations). The memory
// image or inboxes, the cost report, the event stream, the error text
// and the fault accounting must all match the serial run. Every run
// attaches two logs, one fed the phase records and one, hidden behind
// the Observer interface, fed the expander's per-cell Request calls;
// their text must be byte-identical.
//
// The word-vs-bit check then holds the packed store to being an encoding,
// not a model change: in every config, clean and faulted, the program's
// Boolean restriction (0/1 values over the same 0/1 initial memory, the
// word side through the batch calls where the bit side issues per-cell
// requests) must give Mem[int64] and BitMem equal event streams, cost
// reports, error text, fault stats and unpacked memory images.
func FuzzBarrierDifferential(f *testing.F) {
	f.Add([]byte("\x07\x20\x04\x11\x03\x01\x05\x02\x09\x04\x30\x02\x07\x06\x05\x01\x02\x03"))
	f.Add([]byte("\x0b\x9f\x05\x2a\x00\x02\x03\x04\x05\x06\x07\x08\x01\x02\x03\x04\x05\x06\x07\x08"))
	// Block calls of widths 0, 1, 2, 8 and 64 (ReadBlock/ReadWord,
	// WriteBlock, WriteFill) on p = 4 over 100 cells, several straddling
	// cell 50, where refBackend and a two-rank proc split divide the
	// space; the second phase overlaps two write blocks.
	f.Add([]byte{3, 99, 7, 1,
		3, 1, 70, 0, // phase 0: reads [0, 70), writes [70, 100)
		0, 3, opReadBlock, 9, 9, 2, 64, opWriteBlock, 2, 5, 10, opWriteFill, 0, 1, 3, 1, 0,
		0, 2, opReadBlock, 1, 2, 49, 2, opWriteFill, 9, 0, 0, 0, 0,
		0, 1, opWriteBlock, 9, 3, 29, 0, 0,
		0, 1, opReadBlock, 0, 0, 5, 0, 0, 0,
		3, 0, 0, 3, // phase 1: reads and writes over all 100 cells
		0, 1, opWriteFill, 9, 4, 20, 0, 0,
		0, 1, opReadBlock, 3, 0, 90, 2, 0, 2, 1, 5, 0, 2, 6, 1,
		0, 1, opWriteBlock, 8, 7, 46, 0, 0,
		0, 0, 0, 0})
	// A 64-cell read run [40, 104) against a 64-cell write run [90, 154)
	// and a fill at 100, across the split at cell 80: the violation is
	// cell 90, found inside both runs.
	f.Add([]byte{1, 159, 3, 0,
		3, 0, 0, 0,
		0, 1, opReadBlock, 9, 0, 40, 64, 0, 0,
		0, 2, opWriteBlock, 9, 1, 90, opWriteFill, 2, 3, 100, 0, 0})
	// A fill on its own: p = 2 over 64 cells, processor 0 fills [10, 18)
	// and processor 1 fills [30, 64) (a width-64 draw clipped at the end),
	// so the barrier and naiveBackend see fill runs in the write columns.
	f.Add([]byte{1, 63, 5, 0,
		3, 1, 0, 0,
		0, 1, opWriteFill, 8, 7, 10, 0, 0,
		0, 1, opWriteFill, 9, 9, 30, 0, 0})
	// Fills next to block writes: p = 2 over 100 cells. Phase 0: processor
	// 0 fills [0, 8), writes the block [8, 13), then writes cell 13;
	// processor 1 writes the block [20, 23), then fills [23, 87). Phase 1:
	// processor 0 fills [86, 88) and writes the block [88, 92), and
	// processor 1 fills cell 87 alone, a fill of one cell.
	f.Add([]byte{1, 99, 3, 1,
		3, 1, 0, 0,
		0, 3, opWriteFill, 8, 4, 0, opWriteBlock, 5, 20, 8, opWrite, 0, 50, 13, 0, 0,
		0, 2, opWriteBlock, 3, 1, 20, opWriteFill, 9, 2, 23, 0, 0,
		3, 1, 100, 0,
		0, 2, opWriteFill, 2, 7, 86, opWriteBlock, 4, 3, 88, 0, 0,
		0, 1, opWriteFill, 1, 5, 87, 0, 0})
	// Ascending phases (density byte 0xe3: every processor active),
	// which the barrier counts on its ascending path. A clean one: p = 4
	// over 100 cells, blocks of 8; phase 0 reads [0, 32) and writes from
	// 64, phase 1 reads from 50 and writes from 0; processor 1 repeats
	// its last read, processor 2 its last write, processor 3 fills.
	f.Add([]byte{3, 99, 7, 1,
		0xe3, 1, 64, 0, 7, 0,
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0,
		0xe3, 1, 50, 0, 7, 0,
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0})
	// Boundary sharing: p = 12 over 160 cells, blocks of 9 at a stride
	// of 8, so neighbours share a cell (κ = 2) on both sides; the reads
	// [0, 97) straddle cell 80, where refBackend splits the space, and
	// the writes from 120 are clipped at 160.
	f.Add([]byte{11, 159, 5, 0,
		0xe3, 1, 120, 0, 7, 1,
		0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// An ascending clash: p = 4 over 100 cells, reads [0, 32) in blocks
	// of 8 and writes from the split at 20, so cell 20 is both read and
	// written.
	f.Add([]byte{3, 99, 9, 0,
		0xe3, 0, 20, 0, 7, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeProgram(data)
		for _, faulted := range []bool{false, true} {
			checkSame(t, "mem", faulted, func(c barrierConfig) barrierRun { return runMemProgram(t, prog, c, faulted) })
			checkSame(t, "bit", faulted, func(c barrierConfig) barrierRun { return runBitProgram(t, prog, c, faulted) })
			checkSame(t, "route", faulted, func(c barrierConfig) barrierRun { return runRouteProgram(t, prog, c, faulted) })
			checkWordBit(t, prog, faulted)
		}
	})
}

// barrierConfig selects the worker count, when backend is set the
// Backend that counts contention, and when forAll is set ForAll
// dispatch of the memory phases.
type barrierConfig struct {
	name    string
	workers int
	backend func() engine.Backend
	forAll  bool
}

func newRefBackend() engine.Backend   { return &refBackend{} }
func newNaiveBackend() engine.Backend { return naiveBackend{} }

var barrierConfigs = []barrierConfig{
	{"serial", 1, nil, false},
	{"W4", 4, nil, false},
	{"forall-W4", 4, nil, true},
	{"backend", 1, newRefBackend, false},
	{"backend-W4", 4, newRefBackend, false},
	{"naive", 1, newNaiveBackend, false},
}

// runPhase runs one memory phase of a program: through phase, or for a
// forAll config through forAll over the processors up to the last one
// that has any op.
func runPhase[C any](c barrierConfig, ops [][]reqOp, phase func(func(C)), forAll func(int, func(C)), body func(C)) {
	if !c.forAll {
		phase(body)
		return
	}
	active := 0
	for i, o := range ops {
		if len(o) > 0 {
			active = i + 1
		}
	}
	forAll(active, body)
}

// barrierRun is everything a run exposes, rendered for comparison.
type barrierRun struct {
	state, report, events, err, stats string
}

func checkSame(t *testing.T, engineName string, faulted bool, run func(barrierConfig) barrierRun) {
	t.Helper()
	want := run(barrierConfigs[0])
	for _, c := range barrierConfigs[1:] {
		got := run(c)
		for _, d := range []struct{ what, want, got string }{
			{"state", want.state, got.state},
			{"report", want.report, got.report},
			{"events", want.events, got.events},
			{"error", want.err, got.err},
			{"fault stats", want.stats, got.stats},
		} {
			if d.want != d.got {
				t.Fatalf("%s faulted=%t: %s differs between serial and %s:\nserial: %s\n%s: %s",
					engineName, faulted, d.what, c.name, d.want, c.name, d.got)
			}
		}
	}
}

// checkWordBit runs the program's Boolean restriction on Mem[int64] and
// on BitMem in every config and demands identical runs.
func checkWordBit(t *testing.T, pr *program, faulted bool) {
	t.Helper()
	for _, c := range barrierConfigs {
		word, bit := runBoolWordProgram(t, pr, c, faulted), runBitProgram(t, pr, c, faulted)
		for _, d := range []struct{ what, word, bit string }{
			{"memory image", word.state, bit.state},
			{"report", word.report, bit.report},
			{"events", word.events, bit.events},
			{"error", word.err, bit.err},
			{"fault stats", word.stats, bit.stats},
		} {
			if d.word != d.bit {
				t.Fatalf("%s faulted=%t: %s differs between Mem and BitMem:\nMem:    %s\nBitMem: %s",
					c.name, faulted, d.what, d.word, d.bit)
			}
		}
	}
}

// refBackend answers merges with the reference mergers, split over two
// ranges like a two-rank proc backend.
type refBackend struct {
	mem   [2]engine.MemMerger
	route [2]engine.RouteMerger
}

func (*refBackend) Name() string { return "ref" }
func (*refBackend) Close() error { return nil }

func (b *refBackend) MergeMem(req engine.MemMergeReq) (engine.MergeStats, error) {
	mid := req.Cells / 2
	lo, hi := b.mem[0].Merge(req, 0, mid), b.mem[1].Merge(req, mid, req.Cells)
	st := engine.MergeStats{KRead: max(lo.KRead, hi.KRead), KWrite: max(lo.KWrite, hi.KWrite), Viol: lo.Viol}
	if st.Viol < 0 {
		st.Viol = hi.Viol
	}
	return st, nil
}

func (b *refBackend) MergeRoute(req engine.RouteMergeReq) (engine.RouteStats, error) {
	mid := req.P / 2
	lo, hi := b.route[0].Merge(req, 0, mid), b.route[1].Merge(req, mid, req.P)
	return engine.RouteStats{HRecv: max(lo.HRecv, hi.HRecv)}, nil
}

// naiveBackend answers merges straight from the paper's §2 definitions
// with maps: κ is the number of distinct processors per cell, the
// violation is the smallest cell both read and written, and fan-in is
// the number of messages per destination. It reads the request columns'
// run words with its own cells, not the engine's decoder.
type naiveBackend struct{}

// cells lists the cells of a request column: a word with bit 31 set opens
// a run, its low 31 bits the first cell and the next word's low 31 bits
// the length (bit 31 of that word marks a fill, which names the same
// cells); any other word is one cell (or, packed, one PackWrite entry).
func cells(col []int32, packed bool) []int32 {
	var out []int32
	for i := 0; i < len(col); i++ {
		switch w := uint32(col[i]); {
		case w>>31 == 1:
			i++
			for k := uint32(0); k < uint32(col[i])<<1>>1; k++ {
				out = append(out, int32(w<<1>>1+k))
			}
		case packed:
			out = append(out, int32(w>>1))
		default:
			out = append(out, int32(w))
		}
	}
	return out
}

func (naiveBackend) Name() string { return "naive" }
func (naiveBackend) Close() error { return nil }

func (naiveBackend) MergeMem(req engine.MemMergeReq) (engine.MergeStats, error) {
	readers := map[int32]map[int]bool{}
	writers := map[int32]map[int]bool{}
	add := func(m map[int32]map[int]bool, cell int32, proc int) {
		if m[cell] == nil {
			m[cell] = map[int]bool{}
		}
		m[cell][proc] = true
	}
	for proc, col := range req.Reads {
		for _, a := range cells(col, false) {
			add(readers, a, proc)
		}
	}
	for proc, col := range req.Writes {
		for _, a := range cells(col, req.Packed) {
			add(writers, a, proc)
		}
	}
	st := engine.MergeStats{Viol: -1}
	for a, procs := range readers {
		st.KRead = max(st.KRead, int64(len(procs)))
		if writers[a] != nil && (st.Viol < 0 || a < st.Viol) {
			st.Viol = a
		}
	}
	for _, procs := range writers {
		st.KWrite = max(st.KWrite, int64(len(procs)))
	}
	return st, nil
}

func (naiveBackend) MergeRoute(req engine.RouteMergeReq) (engine.RouteStats, error) {
	fanIn := map[int32]int64{}
	var st engine.RouteStats
	for _, col := range req.Dsts {
		for _, d := range col {
			fanIn[d]++
			st.HRecv = max(st.HRecv, fanIn[d])
		}
	}
	return st, nil
}

// --- program generation ----------------------------------------------------

// byteReader hands out fuzz bytes, then zeros once the input runs out,
// so every input decodes to a finite program.
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return int(v)
}

// pick returns an address in [lo, hi), or −1 for an empty range.
func (r *byteReader) pick(lo, hi int) int {
	if hi <= lo {
		return -1
	}
	return lo + r.next()%(hi-lo)
}

// reqOp is one request-issuing step of a processor's phase body.
type reqOp struct {
	kind        int
	addr, addr2 int
	// k is the block width; wide is BitMem's ReadWord width (≤ 64).
	k, wide int
	val     int64
}

// blockWidth draws a block width from one byte: 0 to 8, or 64 one time
// in ten, so the empty block, a lone cell, the shortest run and a
// 64-cell run all occur.
func blockWidth(b int) int {
	if k := b % 10; k < 9 {
		return k
	}
	return 64
}

// Request-op kinds. Reads target the phase's read range and writes its
// write range; a phase whose ranges overlap may clash.
const (
	opRead       = iota // Read(addr)
	opWrite             // Write(addr, val)
	opReadDup           // Read(addr) twice
	opWriteDup          // Write(addr, val) then Write(addr, val+1)
	opReadBlock         // ReadBlock / ReadWord over [addr, addr+k)
	opWriteFill         // WriteFill / k per-cell writes over [addr, addr+k)
	opScatter           // WriteBatch {addr, addr2} / two per-cell writes
	opReadWrite         // ReadBatch {addr} then WriteBatch {addr2} / Read + Write
	opLocal             // Op(k)
	opWriteBlock        // WriteBlock / k per-cell writes of val, val+1, … over [addr, addr+k)
	numOps
)

// ascendNibble is the high nibble of a phase-density byte that makes the
// phase ascending (one byte in sixteen): active processor i reads the
// block of n cells at its read base rlo+i·stride and writes the block of
// n cells at its write base, where n is stride or, sharing, stride+1, so
// neighbouring blocks share a boundary cell. The writes start at the
// write range, or in a clash phase, whose two ranges are the whole
// memory, at the split, so blocks past it clash with the reads. No
// committed corpus entry has such a density byte, so each decodes to the
// program it always did.
const ascendNibble = 0xe

// ascendingOps returns an ascending phase's ops for one processor: a
// block read at ra and a block write (WriteBlock, or WriteFill for an
// odd value) at wa, each of n cells clipped to its range's end at rhi
// or whi, then now and then a repeat of its last read or written cell.
// The request columns ascend, so the barrier can count them on its
// ascending path.
func ascendingOps(r *byteReader, ra, rhi, wa, whi, n int) []reqOp {
	val, repeat := r.next(), r.next()%3
	var ops []reqOp
	if k := min(n, rhi-ra); k > 0 {
		ops = append(ops, reqOp{kind: opReadBlock, addr: ra, k: k, wide: k})
		if repeat == 1 {
			ops = append(ops, reqOp{kind: opRead, addr: ra + k - 1})
		}
	}
	if k := min(n, whi-wa); k > 0 {
		kind := opWriteBlock
		if val%2 == 1 {
			kind = opWriteFill
		}
		ops = append(ops, reqOp{kind: kind, addr: wa, k: k, val: int64(val)})
		if repeat == 2 {
			ops = append(ops, reqOp{kind: opWrite, addr: wa + k - 1, val: int64(val + 1)})
		}
	}
	return ops
}

// sendOp is one staging step of a component's superstep body.
type sendOp struct {
	dst   int32
	val   int64
	batch bool
}

// program is a decoded phase program: per phase, per processor, the
// request ops (memory engines) and the sends (routing engine).
type program struct {
	p, cells int
	seed     int64
	ops      [][][]reqOp
	sends    [][][]sendOp
	work     [][]int64
}

func decodeProgram(data []byte) *program {
	r := &byteReader{b: data}
	pr := &program{p: 1 + r.next()%12, cells: 1 + r.next()%160}
	pr.seed = int64(r.next())
	phases := 1 + r.next()%6
	for ph := 0; ph < phases; ph++ {
		d := r.next()
		density := 1 + d%4 // active processors: density/4 of them
		ascending := d>>4 == ascendNibble
		clash := r.next()%3 == 0
		split := r.next() % (pr.cells + 1)
		rlo, rhi, wlo, whi := 0, split, split, pr.cells
		if ph%2 == 1 {
			rlo, rhi, wlo, whi = split, pr.cells, 0, split
		}
		if clash {
			rlo, rhi, wlo, whi = 0, pr.cells, 0, pr.cells
		}
		fan := 1 + r.next()%pr.p
		var stride, share, wbase int
		if ascending {
			stride, share, wbase = 1+r.next()%8, r.next()%2, wlo
			if clash {
				wbase = split
			}
		}
		phOps := make([][]reqOp, pr.p)
		phSends := make([][]sendOp, pr.p)
		phWork := make([]int64, pr.p)
		for i := 0; i < pr.p; i++ {
			if r.next()%4 >= density {
				continue
			}
			if ascending {
				phOps[i] = ascendingOps(r, rlo+i*stride, rhi, wbase+i*stride, whi, stride+share)
			} else {
				for n := r.next() % 4; n > 0; n-- {
					op := reqOp{kind: r.next() % numOps, k: blockWidth(r.next()), val: int64(r.next())}
					switch op.kind {
					case opRead, opReadDup, opReadBlock:
						op.addr = r.pick(rlo, rhi)
						op.k = min(op.k, rhi-op.addr)
						op.wide = min(r.next()%65, rhi-op.addr)
					case opWrite, opWriteDup, opWriteFill, opWriteBlock:
						op.addr = r.pick(wlo, whi)
						op.k = min(op.k, whi-op.addr)
					case opScatter:
						op.addr, op.addr2 = r.pick(wlo, whi), r.pick(wlo, whi)
					case opReadWrite:
						op.addr, op.addr2 = r.pick(rlo, rhi), r.pick(wlo, whi)
						if op.addr < 0 || op.addr2 < 0 {
							op.addr = -1
						}
					}
					if op.kind != opLocal && op.addr < 0 {
						continue
					}
					phOps[i] = append(phOps[i], op)
				}
			}
			phWork[i] = int64(r.next() % 4)
			for n := r.next() % 4; n > 0; n-- {
				phSends[i] = append(phSends[i], sendOp{
					dst: int32(r.next() % fan), val: int64(r.next()), batch: r.next()%2 == 0,
				})
			}
		}
		pr.ops = append(pr.ops, phOps)
		pr.sends = append(pr.sends, phSends)
		pr.work = append(pr.work, phWork)
	}
	return pr
}

// --- engine drivers ----------------------------------------------------------

func attach(m interface {
	SetBackend(engine.Backend)
	InjectFaults(engine.Injector, engine.RetryPolicy, bool)
}, c barrierConfig, inj engine.Injector) {
	if c.backend != nil {
		m.SetBackend(c.backend())
	}
	if inj != nil {
		m.InjectFaults(inj, engine.RetryPolicy{MaxAttempts: 4}, true)
	}
}

func memPlan(pr *program, faulted bool) engine.Injector {
	if !faulted {
		return nil
	}
	return fault.NewPlan(pr.seed,
		fault.Spec{Kind: fault.MemTransient, Phase: -1, Prob: 0.3},
		fault.Spec{Kind: fault.Crash, Phase: -1, Proc: -1, Prob: 0.1, MaxShots: 1},
		fault.Spec{Kind: fault.Violation, Phase: -1, Prob: 0.05})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// cellOnly exposes only the Observer methods of the log it wraps, so the
// engine does not see an EventLog and feeds it the expander's per-cell
// Request calls instead of a phase record.
type cellOnly struct{ engine.Observer }

// observed is the pair of logs every run attaches: rec gets the phase
// records and cell the per-cell Request calls of the same phases.
type observed struct{ rec, cell *engine.EventLog }

func observe(m engine.Machine) observed {
	o := observed{&engine.EventLog{}, &engine.EventLog{}}
	m.AddObserver(o.rec)
	m.AddObserver(cellOnly{o.cell})
	return o
}

// finishRun renders a run, failing t if its record stream differs from
// its per-cell stream.
func finishRun(t *testing.T, state any, m engine.Machine, o observed) barrierRun {
	t.Helper()
	ev := o.rec
	if got, per := ev.String(), o.cell.String(); got != per {
		t.Fatalf("record stream differs from the per-cell stream:\nrecord:\n%s\nper-cell:\n%s", got, per)
	}
	return barrierRun{
		state:  fmt.Sprint(state),
		report: fmt.Sprintf("%+v", *m.Report()),
		events: strings.Join(ev.Lines(), "\n"),
		err:    errText(m.Err()),
		stats:  fmt.Sprintf("%+v", m.FaultStats()),
	}
}

func runMemProgram(t *testing.T, pr *program, c barrierConfig, faulted bool) barrierRun {
	m := newMemMachine(t, pr.p, pr.cells, c.workers)
	ev := observe(m)
	attach(m, c, memPlan(pr, faulted))
	for i := range m.Data() {
		m.Data()[i] = int64(i * 7)
	}
	for _, phOps := range pr.ops {
		runPhase(c, phOps, m.Phase, m.ForAll, func(ctx *engine.MemCtx[int64]) {
			for _, op := range phOps[ctx.Proc()] {
				switch op.kind {
				case opRead:
					ctx.Read(op.addr)
				case opWrite:
					ctx.Write(op.addr, op.val)
				case opReadDup:
					ctx.Read(op.addr)
					ctx.Read(op.addr)
				case opWriteDup:
					ctx.Write(op.addr, op.val)
					ctx.Write(op.addr, op.val+1)
				case opReadBlock:
					ctx.ReadBlock(op.addr, op.k)
				case opWriteFill:
					ctx.WriteFill(op.addr, op.k, op.val)
				case opWriteBlock:
					vals := make([]int64, op.k)
					for j := range vals {
						vals[j] = op.val + int64(j)
					}
					ctx.WriteBlock(op.addr, vals)
				case opScatter:
					ctx.WriteBatch([]int32{int32(op.addr), int32(op.addr2)}, []int64{op.val, op.val + 2})
				case opReadWrite:
					ctx.ReadBatch([]int32{int32(op.addr)}, nil)
					ctx.WriteBatch([]int32{int32(op.addr2)}, []int64{op.val})
				case opLocal:
					ctx.Op(op.k)
				}
			}
		})
	}
	return finishRun(t, m.Data(), m, ev)
}

// runBoolWordProgram is runBitProgram's request sequence on Mem[int64]:
// the same 0/1 initial memory and the same Boolean values, with the
// word engine's batch calls wherever they issue the same requests.
func runBoolWordProgram(t *testing.T, pr *program, c barrierConfig, faulted bool) barrierRun {
	m := newMemMachine(t, pr.p, pr.cells, c.workers)
	ev := observe(m)
	attach(m, c, memPlan(pr, faulted))
	for i := 0; i < pr.cells; i += 3 {
		m.Data()[i] = 1
	}
	for _, phOps := range pr.ops {
		runPhase(c, phOps, m.Phase, m.ForAll, func(ctx *engine.MemCtx[int64]) {
			for _, op := range phOps[ctx.Proc()] {
				b := op.val & 1
				switch op.kind {
				case opRead:
					ctx.Read(op.addr)
				case opWrite:
					ctx.Write(op.addr, b)
				case opReadDup:
					ctx.Read(op.addr)
					ctx.Read(op.addr)
				case opWriteDup:
					ctx.Write(op.addr, b)
					ctx.Write(op.addr, 1-b)
				case opReadBlock:
					ctx.ReadBlock(op.addr, op.wide)
				case opWriteFill:
					ctx.WriteFill(op.addr, op.k, b)
				case opWriteBlock:
					vals := make([]int64, op.k)
					for j := range vals {
						vals[j] = (b + int64(j)) & 1
					}
					ctx.WriteBlock(op.addr, vals)
				case opScatter:
					ctx.WriteBatch([]int32{int32(op.addr), int32(op.addr2)}, []int64{b, 1 - b})
				case opReadWrite:
					ctx.ReadBatch([]int32{int32(op.addr)}, nil)
					ctx.WriteBatch([]int32{int32(op.addr2)}, []int64{b})
				case opLocal:
					ctx.Op(op.k)
				}
			}
		})
	}
	return finishRun(t, m.Data(), m, ev)
}

func runBitProgram(t *testing.T, pr *program, c barrierConfig, faulted bool) barrierRun {
	m := newBitMachine(t, pr.p, pr.cells, c.workers)
	ev := observe(m)
	attach(m, c, memPlan(pr, faulted))
	for i := 0; i < pr.cells; i += 3 {
		m.SetBit(i, true)
	}
	for _, phOps := range pr.ops {
		runPhase(c, phOps, m.Phase, m.ForAll, func(ctx *engine.BitCtx) {
			for _, op := range phOps[ctx.Proc()] {
				bit := op.val&1 == 1
				switch op.kind {
				case opRead:
					ctx.Read(op.addr)
				case opWrite:
					ctx.Write(op.addr, bit)
				case opReadDup:
					ctx.Read(op.addr)
					ctx.Read(op.addr)
				case opWriteDup:
					ctx.Write(op.addr, bit)
					ctx.Write(op.addr, !bit)
				case opReadBlock:
					ctx.ReadWord(op.addr, op.wide)
				case opWriteFill:
					for j := 0; j < op.k; j++ {
						ctx.Write(op.addr+j, bit)
					}
				case opWriteBlock:
					for j := 0; j < op.k; j++ {
						ctx.Write(op.addr+j, (op.val+int64(j))&1 == 1)
					}
				case opScatter:
					ctx.Write(op.addr, bit)
					ctx.Write(op.addr2, !bit)
				case opReadWrite:
					ctx.Read(op.addr)
					ctx.Write(op.addr2, bit)
				case opLocal:
					ctx.Op(op.k)
				}
			}
		})
	}
	image := make([]int64, m.MemSize())
	for i := range image {
		if m.Bit(i) {
			image[i] = 1
		}
	}
	return finishRun(t, image, m, ev)
}

func runRouteProgram(t *testing.T, pr *program, c barrierConfig, faulted bool) barrierRun {
	m := newRouteMachine(t, pr.p, c.workers)
	ev := observe(m)
	var inj engine.Injector
	if faulted {
		inj = fault.NewPlan(pr.seed,
			fault.Spec{Kind: fault.MsgDrop, Phase: -1, Prob: 0.2},
			fault.Spec{Kind: fault.MsgDup, Phase: -1, Prob: 0.2},
			fault.Spec{Kind: fault.Crash, Phase: -1, Proc: -1, Prob: 0.1, MaxShots: 1})
	}
	attach(m, c, inj)
	for ph, phSends := range pr.sends {
		work := pr.work[ph]
		m.Superstep(func(i int, s *engine.Sends[int64]) {
			s.AddWork(work[i])
			// Message values carry the inbox size, so a wrong delivery
			// shows in the next superstep's sends too.
			base := 1000 * int64(len(m.Incoming(i)))
			for _, op := range phSends[i] {
				if op.batch {
					s.StageBatch([]int32{op.dst}, []int64{base + op.val})
				} else {
					s.Stage(op.dst, base+op.val)
				}
			}
		})
	}
	inbox := make([][]int64, pr.p)
	for i := range inbox {
		inbox[i] = m.Incoming(i)
	}
	return finishRun(t, inbox, m, ev)
}
