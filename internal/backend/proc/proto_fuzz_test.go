package proc

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// fuzzFrame builds one wire frame from a type byte and raw payload tail,
// bypassing the frame encoders so seeds can express torn and malformed
// shapes too.
func fuzzFrame(t byte, tail []byte) []byte {
	var e enc
	e.start(t)
	e.b = append(e.b, tail...)
	return append([]byte(nil), e.finish()...)
}

// memReqFrame and routeReqFrame encode a request as the frame of a
// single rank owning [lo, hi).
func memReqFrame(req engine.MemMergeReq, lo, hi int) []byte {
	var f reqEnc
	return f.memReq(req, []int{lo, hi})[0]
}

func routeReqFrame(req engine.RouteMergeReq, lo, hi int) []byte {
	var f reqEnc
	return f.routeReq(req, []int{lo, hi})[0]
}

// patchWord overwrites the little-endian word that ends back bytes before
// the end of frame, and returns frame.
func patchWord(frame []byte, back int, v uint32) []byte {
	binary.LittleEndian.PutUint32(frame[len(frame)-back:], v)
	return frame
}

// malformed is a request frame the decoder must reject, with the error
// text that names its defect.
type malformed struct {
	name, want string
	frame      []byte
}

// malformedRuns returns the frames with runs the decoder must reject.
// Every frame is an encoded request with a run at its end, patched: the
// last word is a run length, the one before its tag.
func malformedRuns() []malformed {
	// mem encodes one processor's plain write column of 2-cell runs from
	// each start, the last column of the frame.
	mem := func(cells, lo, hi int, starts ...int32) []byte {
		var col []int32
		for _, s := range starts {
			col = append(col, blockRun(int(s), 2)...)
		}
		return append([]byte(nil), memReqFrame(engine.MemMergeReq{Phase: 3, Attempt: 1, Cells: cells,
			Reads: [][]int32{nil}, Writes: [][]int32{col}}, lo, hi)...)
	}
	const top = math.MaxInt32
	torn := mem(16, 0, 16, 2)
	torn = patchWord(torn[:len(torn)-4], 8, 1) // the column now ends at the tag
	binary.LittleEndian.PutUint32(torn, uint32(len(torn)-4))
	return []malformed{
		{"length 0", "length 0, below 2", patchWord(mem(16, 0, 16, 2), 4, 0)},
		{"length 1", "length 1, below 2", patchWord(mem(16, 0, 16, 2), 4, 1)},
		{"past hi", "leaves [0, 4)", patchWord(mem(16, 0, 4, 2), 4, 3)},
		{"below lo", "leaves [4, 8)", patchWord(mem(16, 4, 8, 4), 8, runTag|3)},
		{"packed run", "run at 6 in a column of plain words", patchWord(patchWord(memReqFrame(engine.MemMergeReq{Phase: 3, Cells: 8, Packed: true,
			Reads: [][]int32{nil}, Writes: [][]int32{{engine.PackWrite(3, false), engine.PackWrite(1, false)}}}, 0, 4), 8, runTag|6), 4, 2)},
		{"route run", "run at 5 in a column of plain words", patchWord(patchWord(routeReqFrame(engine.RouteMergeReq{Phase: 3, Attempt: 1, P: 16,
			Dsts: [][]int32{{5, 6}}}, 0, 16), 8, runTag|5), 4, 2)},
		{"int32 overflow", "overflows int32", patchWord(mem(top, 0, top, top-3), 4, 5)},
		{"torn length", "lacks its length word", torn},
		{"one run past the cap", "expand past", patchWord(mem(top, 0, top, 0), 4, maxEntries+1)},
		{"runs past the cap", "expand past", patchWord(patchWord(mem(top, 0, top, 0, 1<<27), 4, maxEntries/2+1), 12, maxEntries/2+1)},
	}
}

// FuzzFrameCodec throws arbitrary byte streams at the frame layer and
// checks the codec invariants the proc backend relies on:
//
//   - readFrame never panics and never yields a payload outside
//     (0, maxFrame];
//   - the frame decoders never panic, and a payload that decodes
//     without error round-trips through the same frame type's encoder
//     (codec agreement: one encode/decode pair per frame type, and no
//     second copy of a layout here). A response or a hello re-encodes
//     to the identical wire bytes. A request may re-encode differently —
//     plain entries outside its [lo, hi), which the encoder never writes
//     and the mergers skip, drop out — so decoding the re-encoding must
//     give the first decode minus those entries, compared entry by entry,
//     and encoding that again must reproduce the re-encoding byte for
//     byte;
//   - a request frame goes through the worker's own decode path, which
//     fails exactly when the decoder does and otherwise answers with a
//     response that echoes the request's (phase, attempt).
//
// Seeds cover torn tails, oversized and zero length prefixes, and
// duplicate headers (a payload that itself looks like a framed stream).
// The run seeds are checked in under testdata/fuzz/FuzzFrameCodec as
// run-*: runs beside a lone entry in a write column (run-maximal), one
// column split into runs at every boundary of a 3-rank split of 9 cells
// (run-split-rank0..2), and each malformedRuns frame. run-packed-past-hi
// is a packed column holding a run, which the decoder rejects for the
// run itself, like run-packed-run and a run in a send column
// (run-route-run).
func FuzzFrameCodec(f *testing.F) {
	var e enc
	frame := func(b []byte) []byte { return append([]byte(nil), b...) }

	// One well-formed frame of each type.
	hello := frame(e.rank(fHello, 3))
	f.Add(hello)
	memres := frame(e.memRes(header{fMemRes, 7, 1}, engine.MergeStats{KRead: 42, KWrite: -9, Viol: -1}))
	f.Add(memres)
	f.Add(frame(e.routeRes(header{fRouteRes, 2, 0}, engine.RouteStats{HRecv: 1 << 40})))
	f.Add(frame(memReqFrame(engine.MemMergeReq{Phase: 1, Cells: 8, Packed: true,
		Reads:  [][]int32{{0, 1}, {1, 2}},
		Writes: [][]int32{{4, 5}, {6, 7}}}, 0, 4)))
	f.Add(frame(routeReqFrame(engine.RouteMergeReq{Phase: 5, Attempt: 2, P: 8, Dsts: [][]int32{{6}}}, 0, 8)))
	f.Add(frame(e.rank(fBeat, 0)))
	f.Add(frame(e.shutdown()))

	// Torn tail: a valid frame with its last bytes ripped off.
	f.Add(memres[:len(memres)-3])
	// Oversized length prefix: claims more than maxFrame.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, fMemRes})
	// Zero length prefix.
	f.Add([]byte{0, 0, 0, 0})
	// Duplicate headers: two frames back to back, and a payload whose
	// first bytes themselves parse as a plausible length header.
	f.Add(append(append([]byte(nil), hello...), memres...))
	f.Add(fuzzFrame(fRouteRes, []byte{9, 0, 0, 0, fRouteRes, 1, 2, 3, 4}))

	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var buf []byte
		for i := 0; i < 32; i++ {
			payload, nbuf, err := readFrame(r, buf)
			buf = nbuf
			if err != nil {
				return
			}
			if len(payload) == 0 || len(payload) > maxFrame {
				t.Fatalf("readFrame returned %d-byte payload", len(payload))
			}
			checkPayload(t, payload)
		}
	})
}

// maxServedSpan bounds the [lo, hi) width of a fuzzed request the
// worker path serves: the worker's merge scratch is sized by that width,
// which a real request sets to the machine's memory size.
const maxServedSpan = 1 << 16

// maxCheckedEntries bounds the entries of a fuzzed request that is served
// and round-tripped. A few bytes of runs can decode to millions of
// entries; checking those would stall the fuzzer on one input, and their
// codec paths are the ones small requests take.
const maxCheckedEntries = 1 << 16

// checkPayload decodes one payload with its frame type's decoder and
// enforces the round-trip and worker-path invariants.
func checkPayload(t *testing.T, payload []byte) {
	t.Helper()
	var e enc
	var reenc []byte
	var err error
	switch payload[0] {
	case fHello, fBeat:
		var rank int
		rank, err = decodeRank(payload, payload[0])
		reenc = e.rank(payload[0], rank)
	case fMemRes:
		h, body := response(payload)
		var st engine.MergeStats
		st, err = body.memRes()
		reenc = e.memRes(h, st)
	case fRouteRes:
		h, body := response(payload)
		var st engine.RouteStats
		st, err = body.routeRes()
		reenc = e.routeRes(h, st)
	case fMemReq:
		var rows colBuf
		req, lo, hi, err := decodeMemReq(payload, &rows)
		if checkServable(t, payload, err, hi-lo, entries(req.Reads)+entries(req.Writes), header{fMemRes, req.Phase, req.Attempt}, (*workerState).serveMem) {
			want := req
			want.Reads, want.Writes = clip(req.Reads, lo, hi, false), clip(req.Writes, lo, hi, req.Packed)
			checkRequest(t, want, lo, hi, memReqFrame, decodeMemReq, func(a, b engine.MemMergeReq) bool {
				return a.Phase == b.Phase && a.Attempt == b.Attempt && a.Cells == b.Cells && a.Packed == b.Packed &&
					sameCols(a.Reads, b.Reads) && sameCols(a.Writes, b.Writes)
			})
		}
		return
	case fRouteReq:
		var rows colBuf
		req, lo, hi, err := decodeRouteReq(payload, &rows)
		if checkServable(t, payload, err, hi-lo, entries(req.Dsts), header{fRouteRes, req.Phase, req.Attempt}, (*workerState).serveRoute) {
			want := req
			want.Dsts = clip(req.Dsts, lo, hi, false)
			checkRequest(t, want, lo, hi, routeReqFrame, decodeRouteReq, func(a, b engine.RouteMergeReq) bool {
				return a.Phase == b.Phase && a.Attempt == b.Attempt && a.P == b.P && sameCols(a.Dsts, b.Dsts)
			})
		}
		return
	default:
		return // shutdown and unknown types carry nothing to decode
	}
	if err != nil {
		return
	}
	if !bytes.Equal(reenc[4:], payload) {
		t.Fatalf("round-trip mismatch for frame %d:\n  decoded from %x\n  re-encoded to %x", payload[0], payload, reenc[4:])
	}
}

// checkRequest checks a decoded request's round trip: want is the
// decoded request minus its entries outside [lo, hi). Its encoding must
// decode to want over the same range, and encoding that decode must
// reproduce the encoding byte for byte.
func checkRequest[R any](t *testing.T, want R, lo, hi int,
	encode func(R, int, int) []byte,
	decode func([]byte, *colBuf) (R, int, int, error),
	same func(R, R) bool) {
	t.Helper()
	first := append([]byte(nil), encode(want, lo, hi)...)
	var rows colBuf
	got, glo, ghi, err := decode(first[4:], &rows)
	if err != nil || glo != lo || ghi != hi || !same(got, want) {
		t.Fatalf("re-encoding decodes to %+v over [%d, %d) (err %v), want %+v over [%d, %d)", got, glo, ghi, err, want, lo, hi)
	}
	if again := encode(got, lo, hi); !bytes.Equal(again, first) {
		t.Fatalf("encoding is not reproducible:\n  first  %x\n  second %x", first, again)
	}
}

// clip returns a copy of cols without the plain entries whose cell is
// outside [lo, hi); the decoder has checked that every run lies inside.
func clip(cols [][]int32, lo, hi int, packed bool) [][]int32 {
	out := make([][]int32, len(cols))
	for i, col := range cols {
		for j := 0; j < len(col); {
			v, n, next := engine.Run(col, j)
			if a := int(engine.EntryAddr(v, packed)); n > 1 || a >= lo && a < hi {
				out[i] = append(out[i], col[j:next]...)
			}
			j = next
		}
	}
	return out
}

// entries counts the entries a column set stands for, runs spelled out.
func entries(cols [][]int32) int {
	total := 0
	for _, col := range cols {
		for i := 0; i < len(col); {
			_, n, next := engine.Run(col, i)
			total, i = total+n, next
		}
	}
	return total
}

// sameCols reports whether two column sets stand for the same entries,
// however each writes them as runs.
func sameCols(a, b [][]int32) bool {
	return slices.EqualFunc(a, b, func(x, y []int32) bool { return slices.Equal(expand(x), expand(y)) })
}

// expand returns a request column's entries, runs spelled out.
func expand(col []int32) []int32 {
	var out []int32
	for i := 0; i < len(col); {
		a, n, next := engine.Run(col, i)
		for k := range n {
			out = append(out, a+int32(k))
		}
		i = next
	}
	return out
}

// checkServable takes a decoded request — its decode error, the width of
// its [lo, hi) and its entry count — and, unless it is too large to check,
// checks that serve, the worker's handler for the frame, fails on payload
// exactly when the decoder did, and otherwise answers with a response
// whose header is want. It reports whether the request decoded and is
// small enough for its round trip to be checked.
func checkServable(t *testing.T, payload []byte, decodeErr error, span, entries int, want header, serve func(*workerState, []byte) ([]byte, error)) bool {
	t.Helper()
	small := entries <= maxCheckedEntries
	if decodeErr == nil && (!small || span > maxServedSpan) {
		return small
	}
	res, err := serve(&workerState{}, payload)
	if (err != nil) != (decodeErr != nil) {
		t.Fatalf("worker path error %v, decoder error %v", err, decodeErr)
	}
	if err == nil {
		if h, _ := response(res[4:]); h != want {
			t.Fatalf("worker response header %+v, want %+v", h, want)
		}
	}
	return err == nil
}

// TestRequestCountBeyondPayload feeds the worker a request whose column
// count claims 2^32−1 columns in a payload that holds none: the decode
// must fail, naming the frame, before the count sizes any allocation.
func TestRequestCountBeyondPayload(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame func() []byte
		serve func(*workerState, []byte) ([]byte, error)
	}{
		{"memReq", func() []byte { return memReqFrame(engine.MemMergeReq{Phase: 1, Attempt: 1, Cells: 8}, 0, 8) }, (*workerState).serveMem},
		{"routeReq", func() []byte { return routeReqFrame(engine.RouteMergeReq{Phase: 1, Attempt: 1, P: 8}, 0, 8) }, (*workerState).serveRoute},
	} {
		// A request without columns ends in its column count.
		payload := tc.frame()[4:]
		binary.LittleEndian.PutUint32(payload[len(payload)-4:], 1<<32-1)
		checkRejected(t, tc.name, payload, tc.serve, tc.name)
	}
}

// TestMalformedRunsRejected serves every malformedRuns frame through the
// worker: each must fail with an error naming the frame and its defect,
// and none may allocate, however far its runs claim to expand.
func TestMalformedRunsRejected(t *testing.T) {
	for _, m := range malformedRuns() {
		serve, frame := (*workerState).serveRoute, "routeReq"
		if m.frame[4] == fMemReq {
			serve, frame = (*workerState).serveMem, "memReq"
		}
		checkRejected(t, m.name, m.frame[4:], serve, frame+" frame", m.want)
	}
}

// checkRejected serves payload on a fresh worker and checks the decode
// fails with an error containing every want, having allocated under 1 MB.
func checkRejected(t *testing.T, name string, payload []byte, serve func(*workerState, []byte) ([]byte, error), wants ...string) {
	t.Helper()
	var w workerState
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := serve(&w, payload)
	runtime.ReadMemStats(&after)
	for _, want := range wants {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a decode error containing %q", name, err, want)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("%s: decoding allocated %d bytes", name, grew)
	}
}

// TestFrameBytes pins the wire size of two benchmark request shapes at
// p = 8 and 2 workers, one frame per rank. Every frame is a 4-byte length
// prefix, a 26-byte header and a 4-byte word count per column, 2p
// columns, plus its words: 2 per run, 1 per lone entry. The blocks come
// as the lanes stage them, one run each.
//   - qsm-batch (K = 16): processor i reads the block [iK, iK+K) and
//     fills [pK+iK, pK+iK+K) of 2pK cells, so rank 0 gets every read
//     block and rank 1 every write block, one run each: 30+64+8·8 = 158
//     bytes per frame.
//   - bool-word: processor i reads the 64 bits [64i, 64i+64) and writes
//     the packed bit 64p+i of 65p bits. The rank boundary 260 splits
//     processor 4's word, so rank 0 gets 5 read runs (30+64+5·8 = 134)
//     and rank 1 gets 4 read runs and 8 lone writes (30+64+4·8+8·4 = 158).
func TestFrameBytes(t *testing.T) {
	const p, k = 8, 16
	batch := engine.MemMergeReq{Cells: 2 * p * k}
	word := engine.MemMergeReq{Cells: 65 * p, Packed: true}
	for i := 0; i < p; i++ {
		batch.Reads = append(batch.Reads, blockRun(i*k, k))
		batch.Writes = append(batch.Writes, blockRun(p*k+i*k, k))
		word.Reads = append(word.Reads, blockRun(64*i, 64))
		word.Writes = append(word.Writes, []int32{engine.PackWrite(64*p+i, i%2 == 1)})
	}
	var f reqEnc
	for _, tc := range []struct {
		name string
		req  engine.MemMergeReq
		want []int
	}{
		{"qsm-batch", batch, []int{158, 158}},
		{"bool-word", word, []int{134, 158}},
	} {
		var got []int
		for _, fr := range f.memReq(tc.req, []int{0, tc.req.Cells / 2, tc.req.Cells}) {
			got = append(got, len(fr))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: frame bytes %v, want %v", tc.name, got, tc.want)
		}
	}
}

// blockRun returns the column of one k-cell block from base, one run as
// the lanes stage it.
func blockRun(base, k int) []int32 { return []int32{int32(uint32(base) | runTag), int32(k)} }

// TestFillRunsEncodeAsRuns pins that a fill run, whose length word also
// carries the tag bit on the lanes, goes on the wire as the run of its
// cells: each rank's frame is byte-identical to the one for the same
// request staged with plain runs, also where a rank bound splits a fill.
func TestFillRunsEncodeAsRuns(t *testing.T) {
	const p, k = 8, 16
	plain := engine.MemMergeReq{Phase: 1, Attempt: 1, Cells: 2*p*k + 5}
	fill := plain
	for i := 0; i < p; i++ {
		r := blockRun(p*k+i*k+3, k)
		plain.Writes = append(plain.Writes, r)
		fill.Writes = append(fill.Writes, []int32{r[0], int32(uint32(r[1]) | runTag)})
	}
	var a, b reqEnc
	for _, bounds := range [][]int{{0, plain.Cells}, {0, plain.Cells / 2, plain.Cells}, {0, 50, 150, 200, plain.Cells}} {
		want, got := a.memReq(plain, bounds), b.memReq(fill, bounds)
		for r := range want {
			if !bytes.Equal(want[r], got[r]) {
				t.Errorf("bounds %v, rank %d: fill frame\n  %x\nwant\n  %x", bounds, r, got[r], want[r])
			}
		}
	}
}
