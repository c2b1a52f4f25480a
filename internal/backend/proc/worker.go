package proc

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
)

// Worker processes are spawned by the coordinator with their identity in
// the environment: the socket to dial, the rank to announce and the
// heartbeat period to keep. MaybeWorker at the top of a main() (or a
// TestMain) turns any binary that links this package into its own worker
// binary — the coordinator re-execs the running executable by default, so
// no separate binary ships.
const (
	// EnvSocket is the Unix-domain socket path the worker dials.
	EnvSocket = "REPRO_PROC_SOCKET"
	// EnvRank is the worker's rank (decimal).
	EnvRank = "REPRO_PROC_RANK"
	// EnvBeat is the heartbeat period (time.Duration string, optional).
	EnvBeat = "REPRO_PROC_BEAT"
)

// defaultBeat is the heartbeat period when EnvBeat is unset or invalid.
const defaultBeat = 25 * time.Millisecond

// MaybeWorker inspects the environment and, when this process was
// spawned as a proc-backend worker, runs the worker loop and exits —
// it never returns in that case. Call it first thing in main() and in
// TestMain before any other work.
func MaybeWorker() {
	socket := os.Getenv(EnvSocket)
	if socket == "" {
		return
	}
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil || rank < 0 {
		fmt.Fprintf(os.Stderr, "proc worker: bad %s=%q\n", EnvRank, os.Getenv(EnvRank))
		os.Exit(2)
	}
	beat := defaultBeat
	if d, err := time.ParseDuration(os.Getenv(EnvBeat)); err == nil && d > 0 {
		beat = d
	}
	if err := RunWorker(socket, rank, beat); err != nil {
		fmt.Fprintf(os.Stderr, "proc worker %d: %v\n", rank, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWorker dials the coordinator, announces its rank, then serves merge
// requests until a shutdown frame or connection loss. One goroutine
// serves merges; a second sends heartbeats; a write mutex keeps their
// frames from interleaving.
func RunWorker(socket string, rank int, beat time.Duration) error {
	conn, err := net.Dial("unix", socket)
	if err != nil {
		return fmt.Errorf("dial %s: %w", socket, err)
	}
	defer conn.Close()

	var wmu sync.Mutex
	send := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeFrame(conn, frame)
	}

	var e enc
	if err := send(e.rank(fHello, rank)); err != nil {
		return fmt.Errorf("hello: %w", err)
	}

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		var be enc
		frame := be.rank(fBeat, rank)
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if send(frame) != nil {
					return
				}
			}
		}
	}()

	w := &workerState{}
	var buf []byte
	for {
		var payload []byte
		payload, buf, err = readFrame(conn, buf)
		if err != nil {
			// Connection loss is the coordinator's teardown (or its
			// death); either way the worker's job is over.
			return nil
		}
		switch payload[0] {
		case fMemReq:
			res, err := w.serveMem(payload)
			if err != nil {
				return err
			}
			if err := send(res); err != nil {
				return err
			}
		case fRouteReq:
			res, err := w.serveRoute(payload)
			if err != nil {
				return err
			}
			if err := send(res); err != nil {
				return err
			}
		case fShutdown:
			return nil
		default:
			return fmt.Errorf("unexpected frame type %d", payload[0])
		}
	}
}

// workerState is one worker's reusable merge scratch: the reference
// mergers plus decoded-column storage, so steady-state merges allocate
// nothing.
type workerState struct {
	mm   engine.MemMerger
	rm   engine.RouteMerger
	cols colBuf
	res  enc
}

func (w *workerState) serveMem(payload []byte) ([]byte, error) {
	req, lo, hi, err := decodeMemReq(payload, &w.cols)
	if err != nil {
		return nil, err
	}
	return w.res.memRes(header{fMemRes, req.Phase, req.Attempt}, w.mm.Merge(req, lo, hi)), nil
}

func (w *workerState) serveRoute(payload []byte) ([]byte, error) {
	req, lo, hi, err := decodeRouteReq(payload, &w.cols)
	if err != nil {
		return nil, err
	}
	return w.res.routeRes(header{fRouteRes, req.Phase, req.Attempt}, w.rm.Merge(req, lo, hi)), nil
}
