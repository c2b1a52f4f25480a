package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/bsp"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/gsm"
	"repro/internal/qsm"
)

// The phase and proc workloads run the four commit-gate bodies of
// internal/sweep/bench.go on long-lived machines at phaseProcs processors.
const (
	phaseProcs = 1 << 16
	batchK     = 16 // per-processor block length of the qsm-batch body
	// engineWorkers is the engine parallelism of the phase, chaos and proc
	// workloads. On a 2-vCPU box Workers=2 ran these phase bodies slower
	// than Workers=1, and bimodally, so the benchmark pins 1.
	engineWorkers = 1
	// samplesPerPhase is how many processors (chosen from the seed) have
	// their phase output checked after each phase.
	samplesPerPhase = 16
)

// phaseKind is one gate body: its name, the requests one phase submits
// (exact, from the body shape) and the model time one phase must charge.
// The model times are the modelTime figures BENCH_pr7.json pins for the
// same bodies; they do not depend on p.
type phaseKind struct {
	name      string
	reqs      int64
	modelTime cost.Time
}

// kindsFor returns the four bodies at p processors:
//   - qsm_batch: a k-cell ReadBlock and a k-cell WriteFill (2k requests);
//   - bool_word: one 64-cell ReadWord and a summary-bit write (65);
//   - bsp_shift: 4 sends per component (4);
//   - gsm_gather: one write, 4 writers per cell (1).
func kindsFor(p int) []phaseKind {
	return []phaseKind{
		{"qsm_batch", int64(p) * 2 * batchK, 32},
		{"bool_word", int64(p) * 65, 128},
		{"bsp_shift", int64(p) * 4, 8},
		{"gsm_gather", int64(p), 4},
	}
}

// roundKinds is the phase order of one round: qsm_batch is five of the
// eight phases, so the median phase is always a qsm_batch sample,
// whichever kinds a change speeds up; with equal counts the median would
// sit in the gap between two kinds and swing with the slowest sample of
// one and the fastest of the other.
var roundKinds = []int{0, 1, 0, 2, 0, 3, 0, 0}

// machines holds one long-lived machine per phase kind, with the
// seed-chosen processors whose outputs are checked.
type machines struct {
	p      int
	kinds  []phaseKind
	qsm    *qsm.Machine
	bits   *qsm.BoolMachine
	bsp    *bsp.Machine
	gsm    *gsm.Machine
	word   []bool // word[i]: processor i's 64-bit input word is nonzero
	sample []int
	gen    int64 // qsm_batch fill value generation, advanced per phase
}

// buildMachines constructs and loads the four machines, timing each kind's
// construction as a span, and attaches bk (nil = in-proc merge).
func buildMachines(p int, kinds []phaseKind, seed int64, bk engine.Backend, tr *tracer) (*machines, error) {
	rng := rand.New(rand.NewSource(seed))
	m := &machines{p: p, kinds: kinds}
	for i := 0; i < samplesPerPhase; i++ {
		m.sample = append(m.sample, rng.Intn(p))
	}
	var err error
	s := tr.start("engine.qsm_batch.construct")
	m.qsm, err = qsm.New(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 2 * p * batchK, Workers: engineWorkers})
	if err == nil {
		in := make([]int64, p*batchK)
		for i := range in {
			in[i] = rng.Int63n(1 << 20)
		}
		err = m.qsm.Load(0, in)
	}
	tr.stop(s)
	if err != nil {
		return nil, fmt.Errorf("qsm_batch machine: %w", err)
	}

	s = tr.start("engine.bool_word.construct")
	m.bits, err = qsm.NewBool(qsm.Config{Rule: cost.RuleQSM, P: p, G: 2, N: p, MemCells: 65 * p, Workers: engineWorkers})
	if err == nil {
		// Half the words get one set bit, so the summary bits vary.
		m.word = make([]bool, p)
		for i := range m.word {
			if rng.Intn(2) == 1 {
				m.word[i] = true
				m.bits.SetBit(64*i+rng.Intn(64), true)
			}
		}
	}
	tr.stop(s)
	if err != nil {
		return nil, fmt.Errorf("bool_word machine: %w", err)
	}

	s = tr.start("engine.bsp_shift.construct")
	m.bsp, err = bsp.New(bsp.Config{P: p, G: 2, L: 8, N: p, PrivCells: 1, Workers: engineWorkers})
	tr.stop(s)
	if err != nil {
		return nil, fmt.Errorf("bsp_shift machine: %w", err)
	}

	s = tr.start("engine.gsm_gather.construct")
	m.gsm, err = gsm.New(gsm.Config{P: p, Alpha: 4, Beta: 4, Gamma: 1, N: p, Cells: p + p/4 + 1, Workers: engineWorkers})
	tr.stop(s)
	if err != nil {
		return nil, fmt.Errorf("gsm_gather machine: %w", err)
	}
	if bk != nil {
		m.qsm.SetBackend(bk)
		m.bits.SetBackend(bk)
		m.bsp.SetBackend(bk)
		m.gsm.SetBackend(bk)
	}
	return m, nil
}

// state returns kind k's machine model time so far and its error.
func (m *machines) state(k int) (cost.Time, error) {
	switch k {
	case 0:
		return m.qsm.Report().TotalTime, m.qsm.Err()
	case 1:
		return m.bits.Report().TotalTime, m.bits.Err()
	case 2:
		return m.bsp.Report().TotalTime, m.bsp.Err()
	default:
		return m.gsm.Report().TotalTime, m.gsm.Err()
	}
}

// run commits one phase of kind k.
func (m *machines) run(k int) {
	p := m.p
	switch k {
	case 0:
		m.gen++
		v := m.gen
		m.qsm.Phase(func(c *qsm.Ctx) {
			pr := c.Proc()
			c.ReadBlock(pr*batchK, batchK)
			c.WriteFill(p*batchK+pr*batchK, batchK, int64(pr)^v)
		})
	case 1:
		m.bits.Phase(func(c *qsm.BoolCtx) {
			w := c.ReadWord(c.Proc()*64, 64)
			c.Write(64*p+c.Proc(), w != 0)
		})
	case 2:
		m.bsp.Superstep(func(c *bsp.Ctx) {
			for j := 0; j < 4; j++ {
				c.Send((c.Comp()+j+1)%p, int64(j), int64(c.Comp()))
			}
		})
	default:
		m.gsm.Phase(func(c *gsm.Ctx) {
			c.Write(p+c.Proc()/4, gsm.NewInfo(int64(c.Proc())))
		})
	}
}

// op commits one phase of kind k as a timed operation, then checks it:
// the machine must stay healthy, the phase must charge exactly the kind's
// model time, and the sampled processors' outputs must be what the body
// computes.
func (m *machines) op(r *recorder, k int) {
	before, _ := m.state(k)
	kd := m.kinds[k]
	r.op("engine."+kd.name+".phase", func() { m.run(k) }, func() error {
		after, err := m.state(k)
		if err != nil {
			return fmt.Errorf("%s: %w", kd.name, err)
		}
		if got := after - before; got != kd.modelTime {
			return fmt.Errorf("%s: phase charged model time %d, want %d", kd.name, got, kd.modelTime)
		}
		return m.checkOutput(k)
	})
}

func (m *machines) checkOutput(k int) error {
	p := m.p
	for _, pr := range m.sample {
		switch k {
		case 0:
			want := int64(pr) ^ m.gen
			for _, a := range []int{p*batchK + pr*batchK, p*batchK + pr*batchK + batchK - 1} {
				if got := m.qsm.Peek(a); got != want {
					return fmt.Errorf("qsm_batch: cell %d = %d, want %d", a, got, want)
				}
			}
		case 1:
			want := int64(0)
			if m.word[pr] {
				want = 1
			}
			if got := m.bits.Peek(64*p + pr); got != want {
				return fmt.Errorf("bool_word: summary bit of processor %d = %d, want %d", pr, got, want)
			}
		case 2:
			in := m.bsp.Incoming(pr)
			if len(in) != 4 {
				return fmt.Errorf("bsp_shift: component %d received %d messages, want 4", pr, len(in))
			}
			for _, msg := range in {
				if from := (pr - int(msg.Tag) - 1 + p) % p; msg.From != from || msg.Val != int64(from) {
					return fmt.Errorf("bsp_shift: component %d got %+v", pr, msg)
				}
			}
		default:
			cell := pr / 4
			info := m.gsm.Peek(p + cell)
			for j := int64(0); j < 4; j++ {
				if !info.Contains(int64(4*cell) + j) {
					return fmt.Errorf("gsm_gather: cell %d lacks processor %d", p+cell, int64(4*cell)+j)
				}
			}
		}
	}
	return nil
}

// warm commits one untimed phase of every kind: the first phase of a
// fresh machine pays page faults and buffer growth a user pays once.
func (m *machines) warm() error {
	for k := range m.kinds {
		m.run(k)
		if _, err := m.state(k); err != nil {
			return fmt.Errorf("%s warm-up: %w", m.kinds[k].name, err)
		}
	}
	return nil
}

// transportRetries sums the transport retries of the four machines.
func (m *machines) transportRetries() int {
	return m.qsm.FaultStats().Transport + m.bits.FaultStats().Transport +
		m.bsp.FaultStats().Transport + m.gsm.FaultStats().Transport
}

// phaseWork is the in-proc phase workload: one round commits the eight
// phases of roundKinds on the long-lived machines; one operation is one
// committed phase or superstep.
type phaseWork struct {
	seed  int64
	p     int
	kinds []phaseKind
	m     *machines
}

func newPhase(seed int64) *phaseWork {
	return &phaseWork{seed: seed, p: phaseProcs, kinds: kindsFor(phaseProcs)}
}

// setup covers New, Load and one warm-up phase per kind.
func (w *phaseWork) setup(tr *tracer) error {
	m, err := buildMachines(w.p, w.kinds, w.seed, nil, tr)
	if err != nil {
		return fmt.Errorf("phase: %w", err)
	}
	if err := m.warm(); err != nil {
		return fmt.Errorf("phase: %w", err)
	}
	w.m = m
	return nil
}

func (w *phaseWork) round(r *recorder, _ bool) {
	for _, k := range roundKinds {
		w.m.op(r, k)
	}
}

func (w *phaseWork) close(*tracer) {
	w.m = nil
	runtime.GC()
}
