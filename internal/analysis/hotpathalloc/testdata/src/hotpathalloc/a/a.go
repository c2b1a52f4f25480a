// Fixture: model callbacks (Apply/Render, matched structurally)
// are hot roots in any package, and closures are flagged then analyzed
// recursively with their own sub-graph.
package a

import "fmt"

type model struct{}

func (model) Apply(mem []int64, addrs []int32, vals []int64) {
	for i, a := range addrs {
		mem[a] = vals[i]
	}
	seen := map[int32]bool{} // want `map literal allocates .* reachable from model\.Apply`
	_ = seen
	f := func() { // want `function literal \(closure capture\) allocates`
		var fresh []int64
		fresh = append(fresh, mem...) // want `append to a non-staged slice allocates`
		_ = fresh
	}
	f()
}

func (model) Render(v int64) string {
	return fmt.Sprintf("%d", v) // want `call to fmt\.Sprintf allocates`
}

func (model) Render2(v int64) string {
	pad := []int64{v} //lint:hotpathalloc-ok fixture: reviewed one-off allocation
	_ = pad
	return ""
}

// helper is cold: no findings outside the hot set.
func helper() string {
	return fmt.Sprintf("cold %d", 1)
}
