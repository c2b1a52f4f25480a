package chaos

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/backend/proc"
	"repro/internal/fault"
)

// The proc backend re-execs this test binary as its worker processes;
// MaybeWorker hijacks those re-execs before the test runner starts.
func TestMain(m *testing.M) {
	proc.MaybeWorker()
	os.Exit(m.Run())
}

// TestChaosProcBackend is the proc-backend acceptance gate: the standard
// fault matrix (every mix × every model, parity) on real worker
// subprocesses. Injected crash verdicts SIGKILL a live worker; message
// verdicts drop or duplicate real frames. Every run must still satisfy
// the robustness invariant — verified XOR diagnosable, zero hangs — and
// mixes with no message-channel faults must reproduce the inproc event
// stream byte-identically (drop/dup realizations burn extra transport
// retry attempts, so their injector consult sequence legitimately
// differs from inproc).
func TestChaosProcBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	deadline := 30 * time.Second
	var verified, errored int
	for _, mx := range StandardMixes() {
		specs, err := fault.ParseSpecs(mx.Specs)
		if err != nil {
			t.Fatal(err)
		}
		channelFaults := strings.Contains(mx.Specs, "drop") || strings.Contains(mx.Specs, "dup")
		for _, model := range Models {
			degraded := mx.Degraded && model != "bsp" && model != "gsm"
			sc := Scenario{
				Model: model, Alg: "parity", N: 32, Seed: 3,
				Specs: specs, Degraded: degraded,
				Backend: "proc", ProcWorkers: 2,
			}
			t.Run(sc.Name(), func(t *testing.T) {
				o := Run(nil, sc, deadline, 0)
				if err := o.Invariant(); err != nil {
					t.Fatal(err)
				}
				if o.Cancelled {
					t.Fatal("run cancelled without a cancel signal")
				}
				if o.Verified {
					verified++
				} else {
					errored++
				}
				if channelFaults {
					return
				}
				ref := sc
				ref.Backend, ref.ProcWorkers = "", 0
				ri := Run(nil, ref, deadline, 0)
				if err := ri.Invariant(); err != nil {
					t.Fatal(err)
				}
				if got, want := o.Stream(), ri.Stream(); got != want {
					t.Fatalf("event stream diverges from inproc:\nproc:\n%s\ninproc:\n%s", got, want)
				}
				if got, want := strings.Join(o.FaultLines, "\n"), strings.Join(ri.FaultLines, "\n"); got != want {
					t.Fatalf("fault schedule diverges from inproc:\nproc:\n%s\ninproc:\n%s", got, want)
				}
				if o.Verified != ri.Verified {
					t.Fatalf("verdict diverges from inproc: proc verified=%t, inproc verified=%t", o.Verified, ri.Verified)
				}
			})
		}
	}
	if verified == 0 || errored == 0 {
		t.Fatalf("degenerate proc sweep: %d verified, %d errored — the matrix should exercise both paths", verified, errored)
	}
}
