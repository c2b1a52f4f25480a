package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the registry stream digests from the current output")

// TestRegistryRerunIsIdentical runs every registry point (each algorithm
// on each model of its family, at the smallest shipped n) twice in one
// process and demands the same answer, cost report and event stream. A
// draw from math/rand's process-global source, which is seeded at random
// at startup, makes the two runs differ; so does any other state one run
// leaves behind for the next. The runs must also match the committed
// digests of testdata/registry_streams.golden, so a change that alters
// what some algorithm requests, or how it is charged, shows even where
// no table cell moves. Regenerate deliberately with:
//
//	go test ./internal/core -run TestRegistryRerunIsIdentical -update
func TestRegistryRerunIsIdentical(t *testing.T) {
	n := core.DefaultNs()[0]
	r := core.Runner{Workers: 1, Events: true}
	points := 0
	var digests strings.Builder
	for _, as := range core.Algs() {
		for _, model := range core.ModelNames() {
			if ms, _ := core.ModelByName(model); ms.Family != as.Family {
				continue
			}
			points++
			pt := core.Point{Model: model, Alg: as.Name, N: n, Seed: 1998}
			run := func() (string, string, string) {
				out, err := r.Execute(pt)
				if err != nil {
					t.Fatalf("%s on %s: %v", as.Name, model, err)
				}
				return out.Summary, fmt.Sprintf("%+v", *out.Report), out.Stream()
			}
			sum1, rep1, ev1 := run()
			sum2, rep2, ev2 := run()
			for _, d := range []struct{ what, a, b string }{
				{"answer", sum1, sum2}, {"cost report", rep1, rep2}, {"event stream", ev1, ev2},
			} {
				if d.a != d.b {
					t.Errorf("%s on %s: %s differs between two runs:\n%.300s\n%.300s", as.Name, model, d.what, d.a, d.b)
				}
			}
			if ev1 == "" {
				t.Errorf("%s on %s: empty event stream", as.Name, model)
			}
			fmt.Fprintf(&digests, "%s %s %x %x %s\n", as.Name, model,
				sha256.Sum256([]byte(ev1)), sha256.Sum256([]byte(rep1)), sum1)
		}
	}
	if points < len(core.Algs()) {
		t.Fatalf("%d points for %d algorithms", points, len(core.Algs()))
	}
	golden := filepath.Join("testdata", "registry_streams.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(digests.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got, wantLines := strings.Split(digests.String(), "\n"), strings.Split(string(want), "\n")
	for i := range got {
		if i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("registry digests diverge from %s at line %d:\ngot:  %s", golden, i+1, got[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d digest lines, %s has %d", len(got), golden, len(wantLines))
	}
}
