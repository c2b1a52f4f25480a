package core_test

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkTable1Events runs every Table 1 point (each experiment at each
// size of its sweep, seed 1998) one after another at one engine worker,
// without and with an event log attached, so the ratio of the two
// sub-benchmarks is what observing a run costs.
//
//	go test ./internal/core -run '^$' -bench Table1Events -benchmem -count 5
func BenchmarkTable1Events(b *testing.B) {
	exps := core.Experiments()
	for _, sub := range []struct {
		name   string
		events bool
	}{{"events=off", false}, {"events=on", true}} {
		r := core.Runner{Workers: 1, Events: sub.events}
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for _, e := range exps {
					for _, n := range e.Ns {
						if _, err := r.RunPoint(e, n, 1998); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
