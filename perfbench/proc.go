package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/proc"
	"repro/internal/engine"
)

// procWorkers is the proc workload's worker-process count: with the
// coordinator's engineWorkers = 1 the run stays within two busy threads.
const procWorkers = 2

// procWork is the phase workload over the multi-process backend: the same
// machines and bodies, with each barrier's contention merge shipped to
// procWorkers worker processes over Unix sockets. Body dispatch, request
// staging and the write apply stay on the coordinator.
type procWork struct {
	seed  int64
	p     int
	kinds []phaseKind
	bk    engine.Backend
	timed *timedBackend // traced runs only
	m     *machines
}

func newProc(seed int64) *procWork {
	return &procWork{seed: seed, p: phaseProcs, kinds: kindsFor(phaseProcs)}
}

// setup covers worker spawn and handshake, New, Load and one warm-up
// phase per kind.
func (w *procWork) setup(tr *tracer) error {
	s := tr.start("proc.spawn")
	bk, err := backend.New(backend.Config{Name: "proc", ProcWorkers: procWorkers})
	tr.stop(s)
	if err != nil {
		return fmt.Errorf("proc: %w", err)
	}
	w.bk = bk
	attach := bk
	if tr != nil {
		w.timed = &timedBackend{inner: bk, workers: procWorkers}
		attach = w.timed
	}
	m, err := buildMachines(w.p, w.kinds, w.seed, attach, tr)
	if err != nil {
		return fmt.Errorf("proc: %w", err)
	}
	if err := m.warm(); err != nil {
		return fmt.Errorf("proc: %w", err)
	}
	w.m = m
	return nil
}

func (w *procWork) round(r *recorder, deep bool) {
	if w.timed != nil {
		w.timed.tr, w.timed.ref = r.tr, deep
	}
	for _, k := range roundKinds {
		if w.timed != nil {
			w.timed.kind = w.kinds[k].name
		}
		w.m.op(r, k)
		if w.timed != nil && w.timed.err != nil {
			r.failFrom(len(r.ops)-1, w.timed.err)
			w.timed.err = nil
		}
	}
}

// close records the transport counters, shuts the workers down and waits
// until every worker process has exited.
func (w *procWork) close(tr *tracer) {
	if w.bk == nil {
		return
	}
	if c, ok := w.bk.(*proc.Coordinator); ok {
		tr.sample("proc.respawns", float64(c.Stats().Respawns))
	}
	if w.m != nil {
		tr.sample("proc.transport_retries", float64(w.m.transportRetries()))
	}
	s := tr.start("proc.close")
	w.bk.Close()
	tr.stop(s)
	reapChildren()
	w.bk, w.timed, w.m = nil, nil, nil
	runtime.GC()
}

// timedBackend wraps the proc coordinator in traced runs. It times each
// merge round trip (encode, socket, worker merge, decode) as a span; in
// deep rounds it first runs the reference merger on the same borrowed
// columns, timed, and checks the coordinator's answer against it. It also
// records the bytes each merge moves, computed from the column lengths
// and the frame layout of internal/backend/proc (not measured on the
// socket).
type timedBackend struct {
	inner   engine.Backend
	workers int
	tr      *tracer
	kind    string // span prefix: the phase kind being committed
	ref     bool
	mem     engine.MemMerger
	route   engine.RouteMerger
	err     error // a reference mismatch, reported by the round
}

func (b *timedBackend) Name() string { return b.inner.Name() }
func (b *timedBackend) Close() error { return b.inner.Close() }

func (b *timedBackend) MergeMem(req engine.MemMergeReq) (engine.MergeStats, error) {
	var want engine.MergeStats
	if b.ref {
		s := b.tr.start("proc." + b.kind + ".ref_merge")
		want = b.mem.Merge(req, 0, req.Cells)
		b.tr.stop(s)
	}
	if b.tr != nil {
		entries := 0
		for _, c := range req.Reads {
			entries += len(c)
		}
		for _, c := range req.Writes {
			entries += len(c)
		}
		// Per rank: a request frame (4-byte length prefix, 26-byte
		// header, a 4-byte count per read and write column) and a 33-byte
		// response frame; every entry goes to exactly one rank as 4 bytes.
		cols := len(req.Reads) + len(req.Writes)
		b.tr.sample("proc."+b.kind+".bytes_per_phase",
			float64(b.workers*(4+26+4*cols+33)+4*entries))
	}
	s := b.tr.start("proc." + b.kind + ".merge")
	got, err := b.inner.MergeMem(req)
	b.tr.stop(s)
	if b.ref && err == nil && got != want {
		b.err = fmt.Errorf("proc %s: merge answered %+v, reference merger %+v", b.kind, got, want)
	}
	return got, err
}

func (b *timedBackend) MergeRoute(req engine.RouteMergeReq) (engine.RouteStats, error) {
	var want engine.RouteStats
	if b.ref {
		s := b.tr.start("proc." + b.kind + ".ref_merge")
		want = b.route.Merge(req, 0, req.P)
		b.tr.stop(s)
	}
	if b.tr != nil {
		entries := 0
		for _, c := range req.Dsts {
			entries += len(c)
		}
		// Per rank: a request frame (4-byte length prefix, 25-byte
		// header, a 4-byte count per sender column) and a 21-byte
		// response frame.
		b.tr.sample("proc."+b.kind+".bytes_per_phase",
			float64(b.workers*(4+25+4*len(req.Dsts)+21)+4*entries))
	}
	s := b.tr.start("proc." + b.kind + ".merge")
	got, err := b.inner.MergeRoute(req)
	b.tr.stop(s)
	if b.ref && err == nil && got != want {
		b.err = fmt.Errorf("proc %s: route merge answered %+v, reference merger %+v", b.kind, got, want)
	}
	return got, err
}

// reapChildren waits, up to a deadline, until this process has no child
// left, running or unreaped. The coordinator kills its workers on Close
// but reaps them from background goroutines; whichever wait gets a child
// first reaps it, and the coordinator never reads the exit status.
func reapChildren() {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		switch {
		case errors.Is(err, syscall.ECHILD):
			return
		case errors.Is(err, syscall.EINTR), pid > 0:
			continue
		case err != nil:
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
