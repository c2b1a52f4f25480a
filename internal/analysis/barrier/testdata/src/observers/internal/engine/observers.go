// Package engine seeds read-only-observer violations: observers hooked
// into the phase loop must not write engine state. It lives at an
// internal/engine import path, so a write from an observer method here
// is also a write outside the sanctioned writers, and both rules fire
// on it.
package engine

// Core mirrors the shared lifecycle state the observers reach.
type Core struct {
	phase int
	time  int
}

// PhaseCost is the per-phase accounting handed to PhaseEnd.
type PhaseCost struct {
	Time int
}

// Request is one memory request handed to Request.
type Request struct {
	Proc int
}

func (c *Core) bump() { c.time++ } // want `engine\.Core\.time written in bump, outside the commit entry points`

// EventLog accumulates into itself: the sanctioned observer pattern.
type EventLog struct {
	Lines []string
	core  *Core
}

func (l *EventLog) PhaseStart(phase int)             { l.Lines = append(l.Lines, "start") }
func (l *EventLog) Request(phase int, r Request)     { l.Lines = append(l.Lines, "req") }
func (l *EventLog) PhaseEnd(phase int, pc PhaseCost) { l.Lines = append(l.Lines, "end") }

// Meddler writes engine state from inside the hooks.
type Meddler struct {
	core *Core
}

func (m *Meddler) PhaseStart(phase int) { // want `observer method Meddler\.PhaseStart \(transitively\) writes engine state`
	m.core.phase = phase // want `engine\.Core\.phase written in PhaseStart, outside the commit entry points`
}

func (m *Meddler) Request(phase int, r Request) {}

func (m *Meddler) PhaseEnd(phase int, pc PhaseCost) { // want `observer method Meddler\.PhaseEnd \(transitively\) writes engine state`
	m.core.bump()
}

// Tuner mutates deliberately; the exemption is documented in DESIGN.md.
type Tuner struct {
	core *Core
}

//lint:barrier-ok prototype auto-tuner, exemption tracked in DESIGN.md
func (t *Tuner) PhaseStart(phase int) { t.core.phase = phase }

func (t *Tuner) Request(phase int, r Request) {}

func (t *Tuner) PhaseEnd(phase int, pc PhaseCost) {}
