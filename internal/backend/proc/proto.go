// Package proc is the multi-process commit-barrier backend: a
// coordinator fork/execs worker subprocesses (ranks 0..W−1) and ships
// each barrier merge to them as length-prefixed frames over a Unix-domain
// socket, merging the per-rank answers in rank order. Workers own
// contiguous slices of the cell (or component) space and run the engine's
// reference mergers (engine.MemMerger / engine.RouteMerger) over their
// slice, so the merged statistics are identical to the in-proc path — a
// fault-free proc run produces byte-equal event streams and cost reports
// to an inproc run at any worker count.
//
// The robustness layer maps the model's fault verdicts onto real
// transport faults (see Coordinator.Realize): crash verdicts SIGKILL a
// worker process, message-channel verdicts drop or duplicate a request
// frame. Physical faults surface as transport errors at the barrier and
// recover through the engine's RetryPolicy — with model-time backoff
// stalls — while dead workers respawn under a capped real-time
// exponential backoff.
package proc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/engine"
)

// Frame format: a 4-byte little-endian payload length, then the payload,
// whose byte 0 is the frame type. Each frame type has one encoder (an enc
// method) and one decoder below, which are its layout: little-endian
// u32/i32/i64 fields, columns as a u32 count and that many i32 entries,
// and on every merge frame, request or response, a header of phase u32,
// attempt u32 after the type.
const (
	fHello    byte = 1 // worker → coordinator, first on a fresh connection
	fMemReq   byte = 2 // coordinator → worker
	fMemRes   byte = 3 // worker → coordinator
	fRouteReq byte = 4 // coordinator → worker
	fRouteRes byte = 5 // worker → coordinator
	fBeat     byte = 6 // worker → coordinator, liveness heartbeat
	fShutdown byte = 7 // coordinator → worker, empty: clean exit request
)

// maxFrame bounds an incoming frame's payload so a corrupt length prefix
// cannot drive an arbitrary allocation.
const maxFrame = 1 << 28

// header is a merge frame's type and (phase, attempt); a response echoes
// its request's pair.
type header struct {
	typ            byte
	phase, attempt int
}

// enc builds one outgoing frame in a reusable buffer. Each frame method
// returns the wire bytes, valid until the buffer's next frame.
type enc struct {
	b []byte
}

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) i64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }

// start begins a frame of type t behind its length prefix.
func (e *enc) start(t byte) { e.b = append(e.b[:0], 0, 0, 0, 0, t) }

func (e *enc) header(h header) {
	e.start(h.typ)
	e.u32(uint32(h.phase))
	e.u32(uint32(h.attempt))
}

// finish backpatches the frame length and returns the complete frame.
func (e *enc) finish() []byte {
	binary.LittleEndian.PutUint32(e.b[:4], uint32(len(e.b)-4))
	return e.b
}

// column appends the entries of col whose cell (engine.EntryAddr) is in
// [lo, hi), behind their backpatched count.
func (e *enc) column(col []int32, lo, hi int, packed bool) {
	at := len(e.b)
	e.b = append(e.b, 0, 0, 0, 0)
	for _, v := range col {
		if a := int(engine.EntryAddr(v, packed)); a >= lo && a < hi {
			e.u32(uint32(v))
		}
	}
	binary.LittleEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4)/4)
}

// rank encodes a hello or beat frame.
func (e *enc) rank(t byte, rank int) []byte {
	e.start(t)
	e.u32(uint32(rank))
	return e.finish()
}

func (e *enc) shutdown() []byte {
	e.start(fShutdown)
	return e.finish()
}

// memReq encodes one rank's merge request, its columns filtered to the
// rank's [lo, hi) cell range.
func (e *enc) memReq(req engine.MemMergeReq, lo, hi int) []byte {
	e.header(header{fMemReq, req.Phase, req.Attempt})
	e.u32(uint32(req.Cells))
	e.b = append(e.b, 0)
	if req.Packed {
		e.b[len(e.b)-1] = 1
	}
	e.u32(uint32(lo))
	e.u32(uint32(hi))
	e.u32(uint32(len(req.Reads)))
	for _, col := range req.Reads {
		e.column(col, lo, hi, false)
	}
	for _, col := range req.Writes {
		e.column(col, lo, hi, req.Packed)
	}
	return e.finish()
}

// routeReq encodes one rank's routing request, its destination columns
// filtered to the rank's [lo, hi) component range.
func (e *enc) routeReq(req engine.RouteMergeReq, lo, hi int) []byte {
	e.header(header{fRouteReq, req.Phase, req.Attempt})
	e.u32(uint32(req.P))
	e.u32(uint32(lo))
	e.u32(uint32(hi))
	e.u32(uint32(len(req.Dsts)))
	for _, col := range req.Dsts {
		e.column(col, lo, hi, false)
	}
	return e.finish()
}

func (e *enc) memRes(h header, st engine.MergeStats) []byte {
	e.header(h)
	e.i64(st.KRead)
	e.i64(st.KWrite)
	e.u32(uint32(st.Viol))
	return e.finish()
}

func (e *enc) routeRes(h header, st engine.RouteStats) []byte {
	e.header(h)
	e.i64(st.HRecv)
	return e.finish()
}

// dec walks one received payload; the first decode error latches in err,
// naming the frame, and turns every later read into a zero-value no-op,
// so decoders check err once at the end.
type dec struct {
	b     []byte
	off   int
	frame string
	err   error
}

func (d *dec) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("proc: %s frame: "+format, append([]any{d.frame}, args...)...)
	}
}

// take returns the next n payload bytes, or nil once decoding failed.
func (d *dec) take(n int, what string) []byte {
	if d.err != nil || n > len(d.b)-d.off {
		d.failf("truncated %s at offset %d of %d", what, d.off, len(d.b))
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

func (d *dec) u32(what string) uint32 {
	if v := d.take(4, what); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *dec) i64(what string) int64 {
	if v := d.take(8, what); v != nil {
		return int64(binary.LittleEndian.Uint64(v))
	}
	return 0
}

// open starts decoding payload p, a frame of the named type, past its
// type byte.
func open(p []byte, frame string) dec { return dec{b: p, off: 1, frame: frame} }

// header decodes a merge frame's header.
func (d *dec) header() header {
	return header{d.b[0], int(d.u32("phase")), int(d.u32("attempt"))}
}

// count decodes a column count, k columns per unit, and rejects one the
// remaining payload cannot hold (each column takes at least its 4-byte
// count), so a count never sizes an allocation on its own.
func (d *dec) count(what string, k int) int {
	n := int(d.u32(what))
	if d.err == nil && k*n > (len(d.b)-d.off)/4 {
		d.failf("%s %d exceeds the %d remaining payload bytes", what, n, len(d.b)-d.off)
		return 0
	}
	return n
}

// span decodes a rank's [lo, hi) slice of a space of the given size.
func (d *dec) span(size int) (lo, hi int) {
	lo, hi = int(d.u32("lo")), int(d.u32("hi"))
	if d.err == nil && (size > math.MaxInt32 || lo > hi || hi > size) {
		d.failf("range [%d, %d) outside a space of %d", lo, hi, size)
	}
	return lo, hi
}

// columns decodes n columns into rows[base:base+n], reusing their
// storage. Entries are not range-checked: the mergers skip any entry
// outside the rank's range, as they skip the rest of the space.
func (d *dec) columns(rows *[][]int32, base, n int) [][]int32 {
	for len(*rows) < base+n {
		*rows = append(*rows, nil)
	}
	out := (*rows)[base : base+n]
	for i := range out {
		raw := d.take(4*int(d.u32("column count")), "column")
		col := out[i][:0]
		for j := 0; j < len(raw); j += 4 {
			col = append(col, int32(binary.LittleEndian.Uint32(raw[j:])))
		}
		out[i] = col
	}
	return out
}

// end checks that the payload was consumed exactly and returns the
// decode error.
func (d *dec) end() error {
	if d.err == nil && d.off != len(d.b) {
		d.failf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// decodeRank decodes a hello or beat frame, whichever want names.
func decodeRank(p []byte, want byte) (int, error) {
	d := open(p, "hello/beat")
	rank := int(d.u32("rank"))
	if p[0] != want {
		d.failf("type %d, want %d", p[0], want)
	}
	return rank, d.end()
}

// decodeMemReq decodes a merge request and the rank's [lo, hi) range,
// reusing rows for the columns.
func decodeMemReq(p []byte, rows *[][]int32) (req engine.MemMergeReq, lo, hi int, err error) {
	d := open(p, "memReq")
	h := d.header()
	req.Phase, req.Attempt, req.Cells = h.phase, h.attempt, int(d.u32("cells"))
	if flag := d.take(1, "packed flag"); flag != nil && flag[0] > 1 {
		d.failf("packed flag %d", flag[0])
	} else {
		req.Packed = flag != nil && flag[0] == 1
	}
	lo, hi = d.span(req.Cells)
	n := d.count("nprocs", 2)
	req.Reads = d.columns(rows, 0, n)
	req.Writes = d.columns(rows, n, n)
	return req, lo, hi, d.end()
}

// decodeRouteReq decodes a routing request and the rank's [lo, hi)
// range, reusing rows for the columns.
func decodeRouteReq(p []byte, rows *[][]int32) (req engine.RouteMergeReq, lo, hi int, err error) {
	d := open(p, "routeReq")
	h := d.header()
	req.Phase, req.Attempt, req.P = h.phase, h.attempt, int(d.u32("p"))
	lo, hi = d.span(req.P)
	req.Dsts = d.columns(rows, 0, d.count("nsenders", 1))
	return req, lo, hi, d.end()
}

// response decodes a response frame's header and returns the decoder of
// its body. Coordinator.await is its one production caller: it drops
// every frame whose header is not the one it awaits, so a body decoder
// only ever reads the response of the current (phase, attempt).
func response(p []byte) (header, dec) {
	d := open(p, "response")
	return d.header(), d
}

func (d dec) memRes() (engine.MergeStats, error) {
	d.frame = "memRes"
	st := engine.MergeStats{KRead: d.i64("kread"), KWrite: d.i64("kwrite"), Viol: int32(d.u32("viol"))}
	return st, d.end()
}

func (d dec) routeRes() (engine.RouteStats, error) {
	d.frame = "routeRes"
	st := engine.RouteStats{HRecv: d.i64("hrecv")}
	return st, d.end()
}

// writeFrame sends one complete frame (as returned by an enc method).
func writeFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame payload into buf (grown as needed) and
// returns the payload slice (valid until the next readFrame on buf).
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, buf, fmt.Errorf("proc: invalid frame length %d", n)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}
