// Package backend selects and constructs commit-barrier backends by
// name. It is the single point the CLI, the chaos harness and the sweep
// registry go through, so the set of valid names and their option
// plumbing live in one place.
package backend

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/backend/proc"
	"repro/internal/engine"
)

// Names lists the selectable backends: "inproc" is the engine's built-in
// merge (the default, represented by a nil engine.Backend), counted by
// the column barrier's own MemMerger/RouteMerger at every Workers
// setting; "proc" is the multi-process transport of internal/backend/proc.
func Names() []string { return []string{"inproc", "proc"} }

// Valid reports whether name selects a known backend ("" = inproc).
func Valid(name string) bool {
	switch name {
	case "", "inproc", "proc":
		return true
	}
	return false
}

// Usage renders the name list for flag help.
func Usage() string { return strings.Join(Names(), "|") }

// Config carries the backend selection and the proc backend's tuning.
// The zero value selects inproc.
type Config struct {
	// Name selects the backend ("" and "inproc" mean the built-in merge).
	Name string
	// ProcWorkers is the proc backend's worker-process count (default 1).
	ProcWorkers int
	// HeartbeatInterval/HeartbeatTimeout tune the proc backend's liveness
	// protocol (zero = package defaults).
	HeartbeatInterval, HeartbeatTimeout time.Duration
	// RespawnMax bounds per-rank worker respawns (zero = package default).
	RespawnMax int
	// LogDir receives per-rank worker logs (empty = the backend's
	// temp directory, removed on Close).
	LogDir string
}

// New constructs the configured backend. inproc returns (nil, nil): a
// nil engine.Backend is the engine's built-in path, byte-identical to
// what it always did. A negative ProcWorkers is rejected for every name,
// matching the sweep's invalid-params skip for the same cell. The caller
// owns the returned backend and must Close it after the run.
func New(cfg Config) (engine.Backend, error) {
	if cfg.ProcWorkers < 0 {
		return nil, fmt.Errorf("backend: negative proc worker count %d (want ≥ 0; 0 selects the default of 1)", cfg.ProcWorkers)
	}
	switch cfg.Name {
	case "", "inproc":
		return nil, nil
	case "proc":
		return proc.New(proc.Options{
			Workers:           cfg.ProcWorkers,
			HeartbeatInterval: cfg.HeartbeatInterval,
			HeartbeatTimeout:  cfg.HeartbeatTimeout,
			RespawnMax:        cfg.RespawnMax,
			LogDir:            cfg.LogDir,
		})
	default:
		return nil, fmt.Errorf("backend: unknown backend %q (have %s)", cfg.Name, Usage())
	}
}
