// Contract-analyzer fixture tests. Each fixture package under
// testdata/src seeds positive findings (matched by // want regexps),
// negative cases on the surrounding lines, and at least one reasoned
// //lint:<check>-ok suppression.
package analysistest_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/costbalance"
	"repro/internal/analysis/sentinelwrap"
)

func TestSentinelWrap(t *testing.T) {
	analysistest.Run(t, sentinelwrap.Analyzer, "sentinelwrap/a")
}

func TestSentinelWrapClean(t *testing.T) {
	analysistest.RunClean(t, sentinelwrap.Analyzer, "sentinelwrap/clean")
}

func TestCostBalance(t *testing.T) {
	analysistest.Run(t, costbalance.Analyzer, "costbalance/a")
}
