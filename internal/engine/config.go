package engine

import (
	"fmt"
	"math"

	"repro/internal/cost"
)

// maxAddr bounds memory sizes and processor counts: request columns and
// spans hold addresses and processor indices as int32, and the 2p+1
// merge tickets of p processors then fit the merger's uint32 marks.
const maxAddr = math.MaxInt32

// ValidateConfig is the shared constructor-side validation of the three
// simulators. prefix is the package's error prefix ("qsm", "bsp", "gsm");
// cells is the shared (or per-component private) memory size; needL
// enforces the BSP requirement L ≥ 1 on top of Params.Validate's L ≥ g.
// Model-specific admissibility (QSM(g,d)'s d ≥ 1, GSM's α, β, γ ≥ 1) stays
// in the adapters, checked before this helper.
func ValidateConfig(prefix string, p cost.Params, n, cells, workers int, needL bool) error {
	if workers < 0 {
		return fmt.Errorf("%s: negative Workers %d", prefix, workers)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if needL && p.L < 1 {
		return fmt.Errorf("%s: latency L must be ≥ 1, got %d", prefix, p.L)
	}
	if p.P > maxAddr {
		return fmt.Errorf("%s: %d processors exceed the %d-processor limit", prefix, p.P, maxAddr)
	}
	if n < 1 {
		return fmt.Errorf("%s: input size N must be ≥ 1, got %d", prefix, n)
	}
	if cells < 0 {
		return fmt.Errorf("%s: negative memory size %d", prefix, cells)
	}
	if cells > maxAddr {
		return fmt.Errorf("%s: memory of %d cells exceeds the %d-cell address space", prefix, cells, maxAddr)
	}
	return nil
}
