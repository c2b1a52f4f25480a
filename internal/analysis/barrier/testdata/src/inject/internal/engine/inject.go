// Package engine seeds injector violations: the fault injector may be
// consulted only from commit, only through consultInjector, and its RNG
// may be drawn only on the Inject call path.
package engine

import "math/rand"

// InjectCtx is the fixture stand-in for fault.InjectCtx.
type InjectCtx struct {
	Phase int
	P     int
}

// Verdict is the fixture stand-in for fault.Verdict.
type Verdict struct {
	Class int
}

// Plan owns the injector RNG.
type Plan struct {
	rng  *rand.Rand
	seed int64
}

func (p *Plan) Inject(ic InjectCtx) Verdict {
	if p.fires(ic) {
		return p.verdict(ic)
	}
	return Verdict{}
}

// fires and verdict draw on the Inject path: fine.
func (p *Plan) fires(ic InjectCtx) bool { return p.rng.Float64() < 0.5 }

func (p *Plan) verdict(ic InjectCtx) Verdict { return Verdict{Class: p.rng.Intn(ic.P + 1)} }

// peek draws off the consult path, shifting the fault schedule.
func (p *Plan) peek() int {
	return p.rng.Intn(8) // want `draws from Plan's injector RNG outside the Inject call path`
}

type core struct {
	inj *Plan
}

func (c *core) consultInjector(cells int) Verdict {
	return c.inj.Inject(InjectCtx{P: cells})
}

// commit is the one sanctioned consultation site: no finding.
func (c *core) commit() {
	c.consultInjector(4)
}

func (c *core) probe() Verdict {
	return c.consultInjector(1) // want `consultInjector called from core\.probe`
}

func (c *core) eager() Verdict {
	return c.inj.Inject(InjectCtx{}) // want `injector Inject called from core\.eager`
}

// debugProbe consults off the commit path deliberately.
func (c *core) debugProbe() Verdict {
	//lint:barrier-ok debug CLI inspection path, not a simulation phase
	return c.consultInjector(1)
}
