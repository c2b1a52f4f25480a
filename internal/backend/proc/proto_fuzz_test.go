package proc

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// FuzzFrameCodec throws arbitrary byte streams at the frame layer and
// checks the codec invariants the proc backend relies on:
//
//   - readFrame never panics and never yields a payload outside
//     (0, maxFrame];
//   - the frame decoders never panic, and a payload that decodes
//     without error re-encodes through the same frame type's encoder to
//     the identical wire bytes (codec agreement: one encode/decode pair
//     per frame type, and no second copy of a layout here). A request
//     whose columns hold entries outside its [lo, hi) range, which the
//     encoder never writes and the mergers skip, re-encodes without
//     them, and that re-encoding must round-trip exactly;
//   - a request frame goes through the worker's own decode path, which
//     fails exactly when the decoder does and otherwise answers with a
//     response that echoes the request's (phase, attempt).
//
// Seeds cover torn tails, oversized and zero length prefixes, and
// duplicate headers (a payload that itself looks like a framed stream).
func FuzzFrameCodec(f *testing.F) {
	var e enc
	frame := func(b []byte) []byte { return append([]byte(nil), b...) }

	// One well-formed frame of each type.
	hello := frame(e.rank(fHello, 3))
	f.Add(hello)
	memres := frame(e.memRes(header{fMemRes, 7, 1}, engine.MergeStats{KRead: 42, KWrite: -9, Viol: -1}))
	f.Add(memres)
	f.Add(frame(e.routeRes(header{fRouteRes, 2, 0}, engine.RouteStats{HRecv: 1 << 40})))
	f.Add(frame(e.memReq(engine.MemMergeReq{Phase: 1, Cells: 8, Packed: true,
		Reads:  [][]int32{{0, 1}, {1, 2}},
		Writes: [][]int32{{4, 5}, {6, 7}}}, 0, 4)))
	f.Add(frame(e.routeReq(engine.RouteMergeReq{Phase: 5, Attempt: 2, P: 8, Dsts: [][]int32{{6}}}, 0, 8)))
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

// checkPayload decodes one payload with its frame type's decoder and
// enforces the round-trip and worker-path invariants.
func checkPayload(t *testing.T, payload []byte) {
	t.Helper()
	var e enc
	var reenc []byte
	var err error
	var w workerState
	canonical := true // whether the payload is what the encoder writes
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
		var req engine.MemMergeReq
		var lo, hi int
		req, lo, hi, err = decodeMemReq(payload, &w.cols)
		reenc = e.memReq(req, lo, hi)
		canonical = inRange(req.Reads, lo, hi, false) && inRange(req.Writes, lo, hi, req.Packed)
		if err != nil || hi-lo <= maxServedSpan {
			checkServed(t, payload, err, header{fMemRes, req.Phase, req.Attempt}, w.serveMem)
		}
	case fRouteReq:
		var req engine.RouteMergeReq
		var lo, hi int
		req, lo, hi, err = decodeRouteReq(payload, &w.cols)
		reenc = e.routeReq(req, lo, hi)
		canonical = inRange(req.Dsts, lo, hi, false)
		if err != nil || hi-lo <= maxServedSpan {
			checkServed(t, payload, err, header{fRouteRes, req.Phase, req.Attempt}, w.serveRoute)
		}
	default:
		return // shutdown and unknown types carry nothing to decode
	}
	if err != nil {
		return
	}
	if !canonical {
		canon := append([]byte(nil), reenc[4:]...)
		checkPayload(t, canon)
		return
	}
	if !bytes.Equal(reenc[4:], payload) {
		t.Fatalf("round-trip mismatch for frame %d:\n  decoded from %x\n  re-encoded to %x", payload[0], payload, reenc[4:])
	}
}

// inRange reports whether every entry of cols addresses a cell in
// [lo, hi).
func inRange(cols [][]int32, lo, hi int, packed bool) bool {
	for _, col := range cols {
		for _, v := range col {
			if a := int(engine.EntryAddr(v, packed)); a < lo || a >= hi {
				return false
			}
		}
	}
	return true
}

// checkServed checks that serve — the worker's handler for a request
// frame — fails on payload exactly when the decoder did (decodeErr), and
// otherwise answers with a response whose header is want.
func checkServed(t *testing.T, payload []byte, decodeErr error, want header, serve func([]byte) ([]byte, error)) {
	t.Helper()
	res, err := serve(payload)
	if (err != nil) != (decodeErr != nil) {
		t.Fatalf("worker path error %v, decoder error %v", err, decodeErr)
	}
	if err == nil {
		if h, _ := response(res[4:]); h != want {
			t.Fatalf("worker response header %+v, want %+v", h, want)
		}
	}
}

// TestRequestCountBeyondPayload feeds the worker a request whose column
// count claims 2^32−1 columns in a payload that holds none: the decode
// must fail, naming the frame, before the count sizes any allocation.
func TestRequestCountBeyondPayload(t *testing.T) {
	var e enc
	for _, tc := range []struct {
		name  string
		frame func() []byte
		serve func(*workerState, []byte) ([]byte, error)
	}{
		{"memReq", func() []byte { return e.memReq(engine.MemMergeReq{Phase: 1, Attempt: 1, Cells: 8}, 0, 8) }, (*workerState).serveMem},
		{"routeReq", func() []byte { return e.routeReq(engine.RouteMergeReq{Phase: 1, Attempt: 1, P: 8}, 0, 8) }, (*workerState).serveRoute},
	} {
		// A request without columns ends in its column count.
		payload := tc.frame()[4:]
		binary.LittleEndian.PutUint32(payload[len(payload)-4:], 1<<32-1)
		var w workerState
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.serve(&w, payload)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: err = %v, want a decode error naming the frame", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, grew)
		}
	}
}
