package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the golden event stream from the current output")

// TestChaosSweep is the headline robustness gate (CI runs it with -race):
// ≥ 200 seeded fault scenarios across all five machine constructors, each
// run at Workers=1 and Workers=8. Every run must satisfy the robustness
// invariant — verified-correct answer or diagnosable error, no panics, no
// deadline overruns, no silent corruption — and the two Workers settings
// must produce byte-identical fault schedules and observer event streams.
func TestChaosSweep(t *testing.T) {
	scs, err := Scenarios([]int64{1, 2}, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 200 {
		t.Fatalf("sweep has %d scenarios, acceptance floor is 200", len(scs))
	}
	deadline := 30 * time.Second

	var verified, errored, injected, recovered, masked int
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			o1 := Run(nil, sc, deadline, 1)
			o8 := Run(nil, sc, deadline, 8)
			for _, o := range []*Outcome{o1, o8} {
				if err := o.Invariant(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := strings.Join(o8.FaultLines, "\n"), strings.Join(o1.FaultLines, "\n"); got != want {
				t.Fatalf("fault schedule diverges across Workers:\nW1:\n%s\nW8:\n%s", want, got)
			}
			if s1, s8 := o1.Stream(), o8.Stream(); s1 != s8 {
				t.Fatalf("observer stream diverges across Workers:\nW1:\n%s\nW8:\n%s", s1, s8)
			}
			if o1.Verified {
				verified++
			} else {
				errored++
			}
			if o1.Report != nil {
				injected += o1.Report.Injected
				recovered += o1.Report.Recovered
				masked += o1.Report.MaskedProcs
			}
		})
	}
	// The totals are a pure function of the matrix and the seeds; they
	// move only when a change moves some run's outcome or fault count.
	if verified != 144 || errored != 64 {
		t.Errorf("sweep outcomes: %d verified, %d diagnosable errors; want 144 and 64 of 208", verified, errored)
	}
	if injected != 159 || recovered != 57 || masked != 36 {
		t.Errorf("sweep faults: injected=%d recovered=%d masked=%d; want 159, 57 and 36", injected, recovered, masked)
	}
	t.Logf("sweep: %d scenarios ×2 workers settings — %d verified, %d diagnosable errors, %d faults, %d recovered, %d masked",
		len(scs), verified, errored, injected, recovered, masked)
}

// Replaying the identical scenario must reproduce the identical outcome,
// fault log and stream — the identical-seed ⇒ identical-event-stream leg
// of the invariant.
func TestChaosReplayDeterminism(t *testing.T) {
	scs, err := Scenarios([]int64{42}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs[:20] {
		a := Run(nil, sc, DefaultDeadline, 0)
		b := Run(nil, sc, DefaultDeadline, 0)
		sa, sb := a.Stream(), b.Stream()
		if sa != sb || strings.Join(a.FaultLines, "\n") != strings.Join(b.FaultLines, "\n") {
			t.Fatalf("%s: replay diverged", sc.Name())
		}
		// Every run that built its machine — completed or diagnosed —
		// records at least its first phase start; an empty stream there
		// means the event log was lost, which equality alone cannot see.
		if a.Report != nil && sa == "" {
			t.Fatalf("%s: event stream is empty", sc.Name())
		}
		if a.Verified != b.Verified || (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("%s: replay verdict diverged: %+v vs %+v", sc.Name(), a, b)
		}
	}
}

// The sweep aggregator reports invariant violations instead of dropping
// them, and a panicking scenario is caught, not propagated.
func TestChaosRunRecoversPanic(t *testing.T) {
	o := Run(nil, Scenario{Model: "qsm", Alg: "parity", N: 0, Seed: 1}, DefaultDeadline, 0)
	if o.Panicked != "" {
		t.Fatalf("n=0 should error cleanly, got panic %q", o.Panicked)
	}
	if o.Err == nil {
		t.Fatal("n=0 should produce a diagnosable constructor error")
	}
}

// TestChaosStreamGolden pins the rendered event stream of one small
// transient-fault scenario byte for byte: the aborted attempt's start
// with no end, the recovery stall, the retried phase. Regenerate
// deliberately with:
//
//	go test ./internal/chaos -run TestChaosStreamGolden -update
func TestChaosStreamGolden(t *testing.T) {
	specs, err := fault.ParseSpecs("mem@2")
	if err != nil {
		t.Fatal(err)
	}
	o := Run(nil, Scenario{Model: "qsm", Alg: "parity", N: 16, Seed: 1, Specs: specs}, DefaultDeadline, 0)
	if err := o.Invariant(); err != nil {
		t.Fatal(err)
	}
	if !o.Verified || o.Report == nil || o.Report.Recovered != 1 {
		t.Fatalf("scenario should verify after one recovered transient: verified=%t report=%v", o.Verified, o.Report)
	}
	got := o.Stream()
	golden := filepath.Join("testdata", "stream_qsm_parity_n16_seed1_mem2.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("event stream diverges from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// degradedPlans are the crash plans TestChaosStreamGoldenDegraded pins,
// by name. "low" masks the four lowest-numbered processors one phase
// after another, so survivor rank k sits above processor k and a phase
// that dispatches by item index instead of survivor rank drops work.
// "cutoff" masks processor 0, then at phase 1 crashes processor n/4:
// the highest processor that phase dispatches to the parity tree's
// n/4 nodes, so the next phase's last survivor rank moves past it.
func degradedPlans(n int) [][2]string {
	return [][2]string{
		{"low", "crash@0:p0,crash@1:p1,crash@2:p2,crash@3:p3"},
		{"cutoff", fmt.Sprintf("crash@0:p0,crash@1:p%d", n/4)},
	}
}

// TestChaosStreamGoldenDegraded pins the degraded runners byte for
// byte: for parity, or and lac on qsm at n = 16 and 64 under each crash
// plan of degradedPlans, the fault log, the fault report, the outcome
// and the rendered event stream. Regenerate deliberately with:
//
//	go test ./internal/chaos -run TestChaosStreamGoldenDegraded -update
func TestChaosStreamGoldenDegraded(t *testing.T) {
	for _, alg := range []string{"parity", "or", "lac"} {
		for _, n := range []int{16, 64} {
			for _, plan := range degradedPlans(n) {
				name := fmt.Sprintf("%s_n%d_%s", alg, n, plan[0])
				t.Run(name, func(t *testing.T) {
					specs, err := fault.ParseSpecs(plan[1])
					if err != nil {
						t.Fatal(err)
					}
					sc := Scenario{Model: "qsm", Alg: alg, N: n, Seed: 1, Specs: specs, Degraded: true}
					o := Run(nil, sc, DefaultDeadline, 0)
					if err := o.Invariant(); err != nil {
						t.Fatal(err)
					}
					if o.Report == nil || o.Report.MaskedProcs == 0 {
						t.Fatalf("%s: the plan masked no processor: %v", sc.Name(), o.Report)
					}
					var b strings.Builder
					fmt.Fprintf(&b, "scenario %s\nverified %t\nerr %v\n", sc.Name(), o.Verified, o.Err)
					for _, l := range o.FaultLines {
						fmt.Fprintf(&b, "fault %s\n", l)
					}
					fmt.Fprintf(&b, "%s\n", o.Report)
					b.WriteString(o.Stream())
					got := b.String()
					golden := filepath.Join("testdata", "degraded", name+".golden")
					if *update {
						if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(golden)
					if err != nil {
						t.Fatalf("%v (run with -update to create it)", err)
					}
					if got != string(want) {
						t.Fatalf("degraded run diverges from %s:\n%s", golden, firstDiff(got, string(want)))
					}
				})
			}
		}
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\ngot:  %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
