package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite the golden tables file from the current output")

// goldenSeed matches the default -seed of the command and the record in
// EXPERIMENTS.md.
const goldenSeed = 1998

// TestTablesGolden locks the full Table 1 rendering byte-for-byte. The
// experiment engine, the simulators and the renderer all feed this output,
// so any refactor of the machine runtime that changes a single cost unit —
// or a single byte of formatting — fails here. Regenerate deliberately
// with:
//
//	go test ./cmd/tables -run TestTablesGolden -update
func TestTablesGolden(t *testing.T) {
	out, err := repro.RenderTables(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, fmt.Sprintf("tables_seed%d.golden", goldenSeed), out)
}

// TestSweepsGolden locks the `tables -theorems -params` output: the
// Theorem 3.1 and 6.3 GSM sweeps followed by the g and L/g parameter
// sweeps, in the order the command prints them. Regenerate deliberately
// with:
//
//	go test ./cmd/tables -run TestSweepsGolden -update
func TestSweepsGolden(t *testing.T) {
	theorems, err := repro.RenderTheoremSweeps(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	params, err := repro.RenderParamSweeps(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, fmt.Sprintf("sweeps_seed%d.golden", goldenSeed), theorems+params)
}

// checkGolden compares out with testdata/name (rewriting it first under
// -update) and reports the first diverging line.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if out == string(want) {
		return
	}
	gotLines := strings.Split(out, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s: output diverges from golden at line %d:\ngot:  %q\nwant: %q",
				name, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: output length differs from golden: %d lines vs %d", name, len(gotLines), len(wantLines))
}
