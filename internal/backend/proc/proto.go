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
	"slices"

	"repro/internal/engine"
)

// Frame format: a 4-byte little-endian payload length, then the payload,
// whose byte 0 is the frame type. Each frame type has one encoder and one
// decoder below, which are its layout: little-endian u32/i32/i64 fields,
// and on every merge frame, request or response, a header of phase u32,
// attempt u32 after the type.
//
// A request column is a u32 count of words, then that many words in the
// engine's own request-column format (engine.Run): a plain word is one
// entry, and a word with bit 31 set (engine.RunTag) opens a run of n ≥ 2
// consecutive cells, its length in the next word. A packed write column
// carries plain PackWrite entries only, and a send column plain
// destinations only, as the lanes stage them. The encoder splits each run at
// the rank bounds, so every run's cells lie in the rank's [lo, hi); the
// worker checks the runs and merges them as they are. A lane's fill bit
// (bit 31 of a run's length word, which concerns only the values) never
// reaches the wire: the encoder writes each length from engine.Run.
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

// runTag marks a column word that opens a run.
const runTag = engine.RunTag

// maxEntries caps the entries one request frame stands for at what a
// maxFrame payload of plain words holds, so a corrupt run length cannot
// drive a merge past the envelope of a frame without runs.
const maxEntries = maxFrame / 4

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

// reqEnc encodes one merge request as every rank's frame, walking the
// request columns once: each plain word goes to the rank whose range
// holds its cell, and each run is split at the rank bounds. Every rank's
// frame carries a count for every column, so the walk costs
// O(words + W·columns), against O(W·words) for a filter pass per rank.
// The buffers are reused across requests.
type reqEnc struct {
	ranks  []rankEnc
	bounds []int   // split's result
	vals   []int64 // the rank bounds in entry values, for the current columns
	frames [][]byte
}

// rankEnc is one rank's frame under construction; at is the offset of
// the open column's count.
type rankEnc struct {
	enc
	at int
}

// split divides a space of the given size into contiguous slices for
// workers ranks, rank r's [r·size/W, (r+1)·size/W), and returns the
// bounds, valid until the next split.
func (f *reqEnc) split(size, workers int) []int {
	f.bounds = f.bounds[:0]
	for r := 0; r <= workers; r++ {
		f.bounds = append(f.bounds, r*size/workers)
	}
	return f.bounds
}

// begin readies one frame per rank.
func (f *reqEnc) begin(ranks int) {
	for len(f.ranks) < ranks {
		f.ranks = append(f.ranks, rankEnc{})
	}
	f.ranks = f.ranks[:ranks]
}

// finish completes every rank's frame and returns them, rank-ordered,
// valid until the next request.
func (f *reqEnc) finish() [][]byte {
	f.frames = f.frames[:0]
	for r := range f.ranks {
		f.frames = append(f.frames, f.ranks[r].finish())
	}
	return f.frames
}

// columns appends the section cols to every rank's frame in one walk.
// Rank r's copy of a column holds, in column order, the column's plain
// words whose cell (engine.EntryAddr) is in [bounds[r], bounds[r+1]),
// copied as they are, and the pieces of its runs that fall there.
//
// The walk works in entry values: the cells [lo, hi) are the entries
// [lo<<s, hi<<s), s = 1 for packed entries and 0 otherwise, since
// EntryAddr is v>>s for every non-negative entry.
func (f *reqEnc) columns(cols [][]int32, bounds []int, packed bool) {
	s := 0
	if packed {
		s = 1
	}
	f.vals = f.vals[:0]
	for _, b := range bounds {
		f.vals = append(f.vals, int64(b)<<s)
	}
	ranks, vals := f.ranks, f.vals
	first, last := vals[0], vals[len(vals)-1]
	r, lo, hi := 0, vals[0], vals[1]
	for _, col := range cols {
		for t := range ranks {
			ranks[t].open()
		}
		rk := &ranks[r]
		for i := 0; i < len(col); {
			a, n, next := engine.Run(col, i)
			i = next
			v, end := int64(a), int64(a)+int64(n)
			if n == 1 && v >= lo && v < hi { // a plain word in the current rank
				rk.put(a, 1)
				continue
			}
			for v, end = max(v, first), min(end, last); v < end; {
				if v < lo || v >= hi {
					for r = 0; vals[r+1] <= v; r++ { // the rank whose range holds v
					}
					lo, hi, rk = vals[r], vals[r+1], &ranks[r]
				}
				k := min(end, hi) - v
				rk.put(int32(v), int32(k))
				v += k
			}
		}
		for t := range ranks {
			ranks[t].close()
		}
	}
}

// open reserves the count of the rank's next column.
func (e *rankEnc) open() {
	e.at = len(e.b)
	e.b = append(e.b, 0, 0, 0, 0)
}

// put writes the n entries from start: one plain word for a lone entry,
// a tagged start and a length for a run.
func (e *rankEnc) put(start, n int32) {
	if n == 1 {
		e.u32(uint32(start))
		return
	}
	e.u32(uint32(start) | runTag)
	e.u32(uint32(n))
}

// close backpatches the open column's word count.
func (e *rankEnc) close() {
	binary.LittleEndian.PutUint32(e.b[e.at:], uint32(len(e.b)-e.at-4)/4)
}

// memReq encodes a merge request as one frame per rank, rank r's over
// the cells [bounds[r], bounds[r+1]).
func (f *reqEnc) memReq(req engine.MemMergeReq, bounds []int) [][]byte {
	f.begin(len(bounds) - 1)
	for r := range f.ranks {
		e := &f.ranks[r].enc
		e.header(header{fMemReq, req.Phase, req.Attempt})
		e.u32(uint32(req.Cells))
		e.b = append(e.b, 0)
		if req.Packed {
			e.b[len(e.b)-1] = 1
		}
		e.u32(uint32(bounds[r]))
		e.u32(uint32(bounds[r+1]))
		e.u32(uint32(len(req.Reads)))
	}
	f.columns(req.Reads, bounds, false)
	f.columns(req.Writes, bounds, req.Packed)
	return f.finish()
}

// routeReq encodes a routing request as one frame per rank, rank r's
// over the components [bounds[r], bounds[r+1]).
func (f *reqEnc) routeReq(req engine.RouteMergeReq, bounds []int) [][]byte {
	f.begin(len(bounds) - 1)
	for r := range f.ranks {
		e := &f.ranks[r].enc
		e.header(header{fRouteReq, req.Phase, req.Attempt})
		e.u32(uint32(req.P))
		e.u32(uint32(bounds[r]))
		e.u32(uint32(bounds[r+1]))
		e.u32(uint32(len(req.Dsts)))
	}
	f.columns(req.Dsts, bounds, false)
	return f.finish()
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

// colBuf is a worker's reusable storage for a request's decoded columns:
// the column headers and one flat word array they slice, filled in
// column order.
type colBuf struct {
	rows [][]int32
	flat []int32
}

// nextColumn splits off the column at b[off:], a count of words and the
// words, returning the words and the offset past them; ok is false when
// the count or the words run past b. It is small enough to inline.
func nextColumn(b []byte, off int) (raw []byte, next int, ok bool) {
	if len(b)-off < 4 {
		return nil, off, false
	}
	n := 4 * int(binary.LittleEndian.Uint32(b[off:]))
	if n > len(b)-off-4 {
		return nil, off, false
	}
	return b[off+4 : off+4+n], off + 4 + n, true
}

// columns decodes the next n columns into buf, those from index plainAt
// on holding plain words only (packed entries or destinations), as the
// request columns the mergers take, runs and all. Every run is checked:
// it must be at least 2 long, stay within int32, have its first and last
// cell in [lo, hi) and not sit in a column from plainAt on; and the
// columns may stand for at most maxEntries entries. Plain words are not
// range-checked: the mergers skip any entry outside the rank's range, as
// they skip the rest of the space.
func (d *dec) columns(buf *colBuf, n, plainAt, lo, hi int) [][]int32 {
	words := (len(d.b) - d.off) / 4 // the column words fit in what is left
	buf.rows = slices.Grow(buf.rows[:0], n)[:n]
	buf.flat = slices.Grow(buf.flat[:0], words)[:words]
	flat, k, total := buf.flat, 0, 0
	for i := 0; i < n && d.err == nil; i++ {
		raw, next, ok := nextColumn(d.b, d.off)
		if !ok {
			d.take(4*int(d.u32("column count")), "column") // fails, naming what is cut off
			break
		}
		d.off = next
		start := k
		for j := 0; j < len(raw); j += 4 {
			w := binary.LittleEndian.Uint32(raw[j:])
			flat[k] = int32(w)
			k++
			if w&runTag == 0 {
				total++
				continue
			}
			if j += 4; j >= len(raw) {
				d.failf("run at %d lacks its length word", w&^runTag)
				break
			}
			first, m := int64(w&^runTag), int64(binary.LittleEndian.Uint32(raw[j:]))
			flat[k] = int32(m)
			k++
			if end := first + m - 1; i >= plainAt || m < 2 || end > math.MaxInt32 || first < int64(lo) || end >= int64(hi) {
				d.badRun(first, m, lo, hi, i >= plainAt)
				break
			}
			total += int(m)
		}
		if d.err == nil && total > maxEntries {
			d.failf("runs expand past %d entries", maxEntries)
		}
		buf.rows[i] = flat[start:k:k]
	}
	if d.err != nil {
		return nil
	}
	return buf.rows
}

// badRun fails the decode on a run of m cells from start that columns
// rejected, naming the check it failed.
func (d *dec) badRun(start, m int64, lo, hi int, plain bool) {
	switch {
	case plain:
		d.failf("run at %d in a column of plain words", start)
	case m < 2:
		d.failf("run at %d has length %d, below 2", start, m)
	case start+m-1 > math.MaxInt32:
		d.failf("run at %d of length %d overflows int32", start, m)
	default:
		d.failf("run at %d of length %d leaves [%d, %d)", start, m, lo, hi)
	}
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
// its columns into buf.
func decodeMemReq(p []byte, buf *colBuf) (req engine.MemMergeReq, lo, hi int, err error) {
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
	plainAt := 2 * n
	if req.Packed {
		plainAt = n
	}
	if rows := d.columns(buf, 2*n, plainAt, lo, hi); rows != nil {
		req.Reads, req.Writes = rows[:n], rows[n:]
	}
	return req, lo, hi, d.end()
}

// decodeRouteReq decodes a routing request and the rank's [lo, hi)
// range, its columns into buf.
func decodeRouteReq(p []byte, buf *colBuf) (req engine.RouteMergeReq, lo, hi int, err error) {
	d := open(p, "routeReq")
	h := d.header()
	req.Phase, req.Attempt, req.P = h.phase, h.attempt, int(d.u32("p"))
	lo, hi = d.span(req.P)
	n := d.count("nsenders", 1)
	req.Dsts = d.columns(buf, n, 0, lo, hi)
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
