package main

import (
	"fmt"
	"math"

	"repro/internal/chaos"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_tail_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload: each
// traced run measures its own workload's layers over many rounds and the
// other workloads' layers over one set-up and one round each.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.T1_s", "s"}, {"core.T2_s", "s"}, {"core.T3_s", "s"}, {"core.T4_s", "s"},
		{"sweep.harness_ms", "ms"}, {"sweep.render_ms", "ms"},
	}
	for _, k := range kindsFor(phaseProcs) {
		defs = append(defs,
			metricDef{"engine." + k.name + ".phase_ms", "ms"},
			metricDef{"engine." + k.name + ".ns_per_req", "ns"},
			metricDef{"engine." + k.name + ".construct_ms", "ms"})
	}
	defs = append(defs, metricDef{"proc.spawn_ms", "ms"}, metricDef{"proc.close_ms", "ms"})
	for _, k := range kindsFor(phaseProcs) {
		defs = append(defs,
			metricDef{"proc." + k.name + ".merge_ms", "ms"},
			metricDef{"proc." + k.name + ".ref_merge_ms", "ms"},
			metricDef{"proc." + k.name + ".bytes_per_phase", "B-computed"})
	}
	defs = append(defs,
		metricDef{"proc.respawns", "count"}, metricDef{"proc.transport_retries", "count"},
		metricDef{"chaos.verified", "count"}, metricDef{"chaos.diagnosed", "count"},
		metricDef{"chaos.injected", "count"}, metricDef{"chaos.recovered", "count"},
		metricDef{"chaos.masked", "count"})
	for _, m := range chaos.Models {
		defs = append(defs, metricDef{"chaos." + m + "_s", "s"})
	}
	return append(defs,
		metricDef{"chaos.fault_overhead_ratio", "ratio"},
		metricDef{"runtime.allocs_per_op", "1/op"},
		metricDef{"runtime.alloc_mb_per_op", "MB/op"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"})
}()

// layerValues computes every per-layer metric except the runtime and
// trace-overhead ones (which belong to the traced run's own workload)
// from the spans and samples of a traced run.
func layerValues(tr *tracer) map[string]float64 {
	v := map[string]float64{}
	for _, t := range []string{"T1", "T2", "T3", "T4"} {
		v["core."+t+"_s"] = median(values(tr.perRun("tables", "core."+t+".RunPoint"))) / 1e3
	}
	// The harness is a pass's RunCell time minus the direct RunPoint time
	// of the same cells, in the passes that made both calls.
	cells := tr.perRun("tables", "sweep.RunCell")
	points := map[int]float64{}
	for _, t := range []string{"T1", "T2", "T3", "T4"} {
		for run, ms := range tr.perRun("tables", "core."+t+".RunPoint") {
			points[run] += ms
		}
	}
	var harness []float64
	for run, ms := range points {
		harness = append(harness, cells[run]-ms)
	}
	v["sweep.harness_ms"] = median(harness)
	v["sweep.render_ms"] = median(tr.durations("tables", "sweep.RenderTablesFromRecords"))

	for _, k := range kindsFor(phaseProcs) {
		phase := median(tr.durations("phase", "engine."+k.name+".phase"))
		v["engine."+k.name+".phase_ms"] = phase
		v["engine."+k.name+".ns_per_req"] = phase * 1e6 / float64(k.reqs)
		v["engine."+k.name+".construct_ms"] = median(tr.durations("phase", "engine."+k.name+".construct"))
		v["proc."+k.name+".merge_ms"] = median(tr.durations("proc", "proc."+k.name+".merge"))
		v["proc."+k.name+".ref_merge_ms"] = median(tr.durations("proc", "proc."+k.name+".ref_merge"))
		v["proc."+k.name+".bytes_per_phase"] = median(tr.samples["proc."+k.name+".bytes_per_phase"])
	}
	v["proc.spawn_ms"] = median(tr.durations("proc", "proc.spawn"))
	v["proc.close_ms"] = median(tr.durations("proc", "proc.close"))
	v["proc.respawns"] = sum(tr.samples["proc.respawns"])
	v["proc.transport_retries"] = sum(tr.samples["proc.transport_retries"])

	for _, n := range []string{"verified", "diagnosed", "injected", "recovered", "masked"} {
		v["chaos."+n] = median(tr.samples["chaos."+n])
	}
	for _, m := range chaos.Models {
		v["chaos."+m+"_s"] = median(values(tr.perRun("chaos", "chaos."+m))) / 1e3
	}
	v["chaos.fault_overhead_ratio"] = median(tr.samples["chaos.fault_overhead_ratio"])
	return v
}

// sum adds the samples; NaN when there are none, so a missing counter
// shows as a missing metric rather than as zero.
func sum(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// collect turns computed values into the result's metrics, in defs order,
// failing on any metric that has no finite value.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := vals[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s has no value", d.name)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}
