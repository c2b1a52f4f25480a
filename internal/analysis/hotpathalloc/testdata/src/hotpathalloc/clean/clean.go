// Fixture: an allocation-free hot path plus reasoned allowlists must
// produce no findings at all.
package clean

type core struct {
	cols [][]int32
	out  []int32
}

func (c *core) commit(workers int) { // not an engine package: commit is not a root here
	_ = make([]int32, workers)
}

type model struct{}

func (model) Apply(mem []int64, addrs []int32, vals []int64) {
	for i, a := range addrs {
		mem[a] = vals[i]
	}
}
