// Package a seeds directive and marker mistakes: a //lint:<name>-ok
// directive must name an analyzer of the suite, and a //repro: marker
// must be a known one on the kind of declaration it marks.
package a

type store struct {
	//repro:pooled
	mem  []int64
	free []int64 //repro:pooled
	//repro:poold // want `unknown marker //repro:poold \(known: hot, pooled\)`
	spare []int64
	//repro:hot // want `//repro:hot marks a function, not a struct field`
	n int
}

// commit carries its marker as the last line of its doc comment.
//
//repro:hot
func (s *store) commit() {
	s.n++ //lint:barrier-ok a known analyzer: no finding
	s.n-- //lint:commitpurity-ok merged into barrier // want `//lint:commitpurity-ok names no reprolint analyzer`
	//lint:observerpurity-ok merged into barrier // want `//lint:observerpurity-ok names no reprolint analyzer`
	s.n++
	//lint:directives-ok its findings take no suppression // want `//lint:directives-ok names no reprolint analyzer`
	s.n--
}

//repro:pooled // want `//repro:pooled marks a struct field, not a function`
func (s *store) drain() {}

//repro:hot // want `//repro:hot marks a function, but this one is on no function`
var spill []int64

// A directive key without the -ok suffix is not a suppression directive.
//
//lint:ignore not a reprolint directive
var quiet int
