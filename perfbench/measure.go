package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// maxFailureNotes bounds how many failure descriptions a run keeps for
// its standard-error report; the count itself is never truncated.
const maxFailureNotes = 8

// recorder collects the timed operations of a run: the CPU and wall time
// of each operation, which of them failed their output check, and — when
// tr is set — a span per call.
type recorder struct {
	cpu   *cpuMeter
	ops   []float64 // CPU milliseconds, in execution order
	wall  []float64 // wall-clock milliseconds, same order
	bad   []bool    // bad[i]: operation i produced a wrong output
	notes []string
	tr    *tracer
}

// op times one operation, f, and then checks its output untimed. A check
// error counts the operation as failed; the run goes on either way.
func (r *recorder) op(name string, f func(), check func() error) {
	s := r.tr.start(name)
	c0, t0 := r.cpu.now(), time.Now()
	f()
	wall, cpu := time.Since(t0), r.cpu.now()-c0
	r.tr.stop(s)
	r.ops = append(r.ops, cpu.Seconds()*1e3)
	r.wall = append(r.wall, wall.Seconds()*1e3)
	r.bad = append(r.bad, false)
	if err := check(); err != nil {
		r.failFrom(len(r.ops)-1, err)
	}
}

// failFrom marks every operation from index i on as failed: a check on a
// whole round (a rendered table, a set of totals) that fails makes every
// operation that fed it untrustworthy.
func (r *recorder) failFrom(i int, err error) {
	for ; i < len(r.bad); i++ {
		r.bad[i] = true
	}
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, err.Error())
	}
}

func (r *recorder) failed() int {
	n := 0
	for _, b := range r.bad {
		if b {
			n++
		}
	}
	return n
}

// span is one timed call, as written to the span file.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps every span of a traced run in memory. Spans nest by call
// order: a span started while another is open is its child. A nil tracer
// records nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	t0       time.Time
	spans    []span
	open     []int
	workload string // tags new spans
	run      int    // round index, tags new spans
	// samples holds the counts recorded at layer boundaries (totals,
	// computed bytes, transport counters), by per-layer metric name.
	samples map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), samples: map[string][]float64{}} }

// sample records one value of a counted per-layer metric.
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Run: t.run, Parent: parent,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) stop(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// durations returns the span durations (ms) of one workload's spans named
// name, in recording order.
func (t *tracer) durations(workload, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// perRun sums the durations (ms) of one workload's spans named name in
// each round; rounds without such a span are absent.
func (t *tracer) perRun(workload, name string) map[int]float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			sums[s.Run] += s.ms()
		}
	}
	return sums
}

// values returns a per-round map's values.
func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// selfTime is one row of the per-layer self-time table: a span's
// duration minus the part of it its child spans cover.
type selfTime struct {
	Workload, Name string
	Count          int
	TotalMS        float64
	SelfMS         float64
}

// selfTimes aggregates self time per (workload, span name), sorted by
// workload then descending self time.
func (t *tracer) selfTimes() []selfTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	idx := map[[2]string]int{}
	var rows []selfTime
	for i, s := range t.spans {
		k := [2]string{s.Workload, s.Name}
		j, ok := idx[k]
		if !ok {
			j = len(rows)
			idx[k] = j
			rows = append(rows, selfTime{Workload: s.Workload, Name: s.Name})
		}
		rows[j].Count++
		rows[j].TotalMS += s.ms()
		rows[j].SelfMS += s.ms() - child[i]
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].Workload != rows[b].Workload {
			return rows[a].Workload < rows[b].Workload
		}
		return rows[a].SelfMS > rows[b].SelfMS
	})
	return rows
}

// median returns the middle value (the mean of the two middle values for
// an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundMedian is the median operation of a typical round. Every round
// runs the same operations in the same order, so each operation's median
// over the rounds is its typical time, and the result is the median of
// those. Pooling all samples instead puts the median on the boundary
// between two operations of different sizes, where it swings with the
// slowest sample of one and the fastest of the other.
func roundMedian(ops []float64, rounds int) float64 {
	k := len(ops) / rounds
	if rounds < 1 || k*rounds != len(ops) {
		return math.NaN()
	}
	typical := make([]float64, k)
	col := make([]float64, rounds)
	for i := range typical {
		for r := range col {
			col[r] = ops[r*k+i]
		}
		typical[i] = median(col)
	}
	return median(typical)
}

// tailLadder lists the percentiles op_tail_ms may report, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 50}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least ten of n operations beyond it. The run's operation count is
// fixed by the workload and --seconds, so the choice does not move with
// the program's speed.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= 10 {
			return q
		}
	}
	return 50
}

// percentile is the nearest-rank q-th percentile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// rtSample is a snapshot of the runtime counters the per-layer runtime
// metrics are deltas of.
type rtSample struct {
	allocs, bytes, gcCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocs: v(0), bytes: v(1), gcCPU: v(2)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocs + b.allocs, a.bytes + b.bytes, a.gcCPU + b.gcCPU}
}
