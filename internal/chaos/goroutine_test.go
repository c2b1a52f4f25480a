package chaos

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestProcBackendGoroutineHygiene owns the goroutine lifecycle of chaos
// runs: once Run returns, every goroutine the run started must be gone
// within a bounded wait. One scenario runs in-proc, which covers Run's
// runner goroutine. One runs over the proc backend with crash faults, so
// the respawn and kill paths all fire and Close must then tear down every
// acceptLoop, handshake, readLoop and reaper goroutine. On timeout the
// full stack dump names the leaker. The goroutine count is process-wide,
// so no chaos test runs in parallel.
func TestProcBackendGoroutineHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs, err := fault.ParseSpecs("crash@1:p0,mem~0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"inproc", "proc"} {
		baseline := runtime.NumGoroutine()
		sc := Scenario{
			Model: "qsm", Alg: "parity", N: 32, Seed: 3,
			Specs: specs, Degraded: true,
			Backend: backend, ProcWorkers: 2,
		}
		o := Run(nil, sc, 30*time.Second, 0)
		if err := o.Invariant(); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}

		const wait = 10 * time.Second
		deadline := time.Now().Add(wait)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines alive %v after Run, baseline %d:\n%s",
					backend, runtime.NumGoroutine(), wait, baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
