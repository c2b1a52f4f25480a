package main

import (
	"fmt"

	"repro/internal/sweep"
)

const (
	chaosN = 1024
	// chaosSeeds is how many consecutive seeds, starting at --seed, one
	// round sweeps the standard chaos matrix over (104 cells per seed).
	chaosSeeds = 4
)

// chaosTotals are the outcome counts of one round. They are a pure
// function of the seeds, so every round must repeat them exactly.
type chaosTotals struct {
	Verified, Diagnosed, Injected, Recovered, Masked int
}

// pinnedChaos holds the exact totals of one round at goldenSeed; at other
// seeds the first round's totals are the expectation for the rest.
var pinnedChaos = map[int64]chaosTotals{
	goldenSeed: {Verified: 288, Diagnosed: 128, Injected: 326, Recovered: 126, Masked: 72},
}

// chaosWork runs the standard chaos matrix (sweep.PresetChaos) through the
// generic cell runner, with the fault injector consulted every phase, a
// checkpoint every phase, rollbacks and an EventLog observer attached.
// One round is the matrix over chaosSeeds seeds; one operation is one
// sweep cell.
type chaosWork struct {
	cells []sweep.Cell // one round
	first []sweep.Cell // the first seed's cells: the set-up pass
	want  *chaosTotals
}

func newChaos(seed int64) *chaosWork {
	seeds := make([]int64, chaosSeeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	w := &chaosWork{
		cells: sweep.PresetChaos(seeds, chaosN, false),
		first: sweep.PresetChaos(seeds[:1], chaosN, false),
	}
	if t, ok := pinnedChaos[seed]; ok {
		w.want = &t
	}
	return w
}

var chaosRun = sweep.RunConfig{Workers: engineWorkers}

// setup is one untimed pass over the first seed.
func (w *chaosWork) setup(*tracer) error {
	for _, c := range w.first {
		if rec := sweep.RunCell(c, chaosRun); rec.Status == sweep.StatusSkipped {
			return fmt.Errorf("chaos: set-up cell %s skipped (%s)", rec.Key, rec.Reason)
		}
	}
	return nil
}

func (w *chaosWork) round(r *recorder, deep bool) {
	from := len(r.ops)
	var got chaosTotals
	for _, c := range w.cells {
		var rec sweep.Record
		r.op("chaos."+c.Model, func() { rec = sweep.RunCell(c, chaosRun) }, func() error {
			got.Injected += rec.Injected
			got.Recovered += rec.Recovered
			got.Masked += rec.MaskedProcs
			switch rec.Status {
			case sweep.StatusOK:
				got.Verified++
			case sweep.StatusDiagnosed:
				got.Diagnosed++
			default:
				return fmt.Errorf("chaos: cell %s: %s %s%s", rec.Key, rec.Status, rec.Reason, rec.Error)
			}
			return nil
		})
	}
	if w.want == nil {
		w.want = &got
	} else if got != *w.want {
		r.failFrom(from, fmt.Errorf("chaos: round totals %+v, want %+v", got, *w.want))
	}
	r.tr.sample("chaos.verified", float64(got.Verified))
	r.tr.sample("chaos.diagnosed", float64(got.Diagnosed))
	r.tr.sample("chaos.injected", float64(got.Injected))
	r.tr.sample("chaos.recovered", float64(got.Recovered))
	r.tr.sample("chaos.masked", float64(got.Masked))
	if deep {
		w.faultOverhead(r)
	}
}

func (w *chaosWork) close(*tracer) {}

// faultOverhead times each of the first seed's fault cells beside its
// fault-free twin and records the ratio of the two sums.
func (w *chaosWork) faultOverhead(r *recorder) {
	var fault, free float64
	for _, c := range w.first {
		s := r.tr.start("chaos.fault_cell")
		sweep.RunCell(c, chaosRun)
		r.tr.stop(s)
		fault += r.tr.spans[s].ms()

		t := twinOf(c)
		s = r.tr.start("chaos.twin_cell")
		rec := sweep.RunCell(t, chaosRun)
		r.tr.stop(s)
		free += r.tr.spans[s].ms()
		if rec.Status != sweep.StatusOK {
			r.failFrom(len(r.ops)-1, fmt.Errorf("chaos: fault-free twin %s: %s %s%s", rec.Key, rec.Status, rec.Reason, rec.Error))
		}
	}
	r.tr.sample("chaos.fault_overhead_ratio", fault/free)
}

// twinOf returns the fault-free machine cell (Faults "") that runs a chaos
// cell's algorithm on the machine shape the chaos runner builds for it.
func twinOf(c sweep.Cell) sweep.Cell {
	t := sweep.Cell{Model: c.Model, N: c.N, Seed: c.Seed}
	switch c.Model {
	case "bsp":
		t.Alg, t.P, t.G, t.L, t.Fanin = "bsp-"+c.Alg, 8, 2, 8, 4
	case "gsm":
		t.Alg, t.P, t.Alpha, t.Beta, t.Gamma, t.Fanin = "gsm-"+c.Alg, (c.N+1)/2, 2, 2, 2, 4
	default:
		t.P, t.G = c.N, 2
		switch c.Alg {
		case "or":
			t.Alg, t.Fanin = "or-contention", 4
		case "lac":
			t.Alg = "lac-dart"
		default:
			t.Alg, t.Fanin = c.Alg, 2
		}
	}
	return t
}
