package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildReprolint compiles the tool once into a temp dir and returns the
// binary path plus the repo root.
func buildReprolint(t *testing.T) (bin, root string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	root, err = filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin = filepath.Join(t.TempDir(), "reprolint")
	build := exec.Command(goTool, "build", "-o", bin, "repro/cmd/reprolint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building reprolint: %v\n%s", err, out)
	}
	return bin, root
}

// TestVetToolProtocol exercises the full `go vet -vettool` protocol
// against the repository itself: the -V=full identification handshake,
// the -flags query, and a whole-tree vet run that must come back clean
// (the tree is lint-clean by construction; any new violation fails here
// before it fails in CI).
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and vets the whole tree")
	}
	bin, root := buildReprolint(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	f := strings.Fields(string(out))
	// cmd/go parses this line in work.Builder.toolID: at least three
	// fields, f[1] == "version", and a devel version must end in a
	// buildID= field.
	if len(f) < 3 || f[1] != "version" || f[2] == "devel" && !strings.HasPrefix(f[len(f)-1], "buildID=") {
		t.Errorf("-V=full output %q does not satisfy cmd/go's toolID parser", out)
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	if len(flags) == 0 {
		t.Fatal("-flags printed no flags; per-analyzer enable flags missing")
	}
	if !sort.SliceIsSorted(flags, func(i, j int) bool { return flags[i].Name < flags[j].Name }) {
		t.Errorf("-flags not sorted by name (cmd/go hashes the bytes into action IDs): %s", out)
	}
	names := make(map[string]bool, len(flags))
	for _, fl := range flags {
		names[fl.Name] = true
	}
	want := []string{"json", "maporder", "wallclock", "barrier", "sentinelwrap", "costbalance", "colescape", "directives"}
	for _, w := range want {
		if !names[w] {
			t.Errorf("-flags missing %q: %s", w, out)
		}
	}
	if len(names) != len(want) {
		t.Errorf("-flags lists %d flags, want exactly %q: %s", len(names), want, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	var stderr bytes.Buffer
	vet.Stdout = os.Stdout
	vet.Stderr = &stderr
	if err := vet.Run(); err != nil {
		t.Fatalf("go vet -vettool over the tree found violations or failed: %v\n%s", err, stderr.String())
	}
}

// TestCFGDebugDump checks the -cfg-debug front end: a named function
// renders its block graph, a missing one is a usage error.
func TestCFGDebugDump(t *testing.T) {
	var out, errw bytes.Buffer
	src := filepath.Join(t.TempDir(), "x.go")
	if err := os.WriteFile(src, []byte(`package x

func Sum(vals []int) (total int) {
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	return total
}
`), 0o666); err != nil {
		t.Fatal(err)
	}
	if code := dumpCFG(src+":Sum", &out, &errw); code != 0 {
		t.Fatalf("dumpCFG exit %d: %s", code, errw.String())
	}
	dump := out.String()
	for _, want := range []string{"cfg Sum:", "range.head", "if.then", "exit"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	if code := dumpCFG(src+":Missing", &out, &errw); code != 2 {
		t.Errorf("dumpCFG for a missing function = %d, want 2", code)
	}
	if code := dumpCFG("no-colon", &out, &errw); code != 2 {
		t.Errorf("dumpCFG without file:Func = %d, want 2", code)
	}
}

// TestStandaloneDriver runs the driver front end over a scratch module
// with seeded violations: exit 2 with -json findings on the first run,
// exit 0 after -write-baseline records them as suppression debt, a SARIF
// report carrying the baselineState split, and exit 2 again when a new
// violation lands on top of the baseline.
func TestStandaloneDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet twice")
	}
	bin, _ := buildReprolint(t)

	scratch := t.TempDir()
	writeFile := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(scratch, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module scratch\n\ngo 1.21\n")
	writeFile("dirty.go", `package scratch

import "time"

func Sum(m map[string]int) (total int) {
	for _, v := range m {
		total += v
	}
	return total
}

func Now() time.Time { return time.Now() }
`)

	run := func(args ...string) (exit int, stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = scratch
		var outBuf, errBuf bytes.Buffer
		cmd.Stdout = &outBuf
		cmd.Stderr = &errBuf
		err := cmd.Run()
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("running %v: %v", args, err)
			}
			exit = ee.ExitCode()
		}
		return exit, outBuf.String(), errBuf.String()
	}

	// Plain run: both seeded violations, exit 2, structured JSON.
	exit, stdout, stderr := run("-json", "./...")
	if exit != 2 {
		t.Fatalf("dirty run exit = %d, want 2\nstdout: %s\nstderr: %s", exit, stdout, stderr)
	}
	var findings []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, stdout)
	}
	got := make(map[string]string, len(findings))
	for _, f := range findings {
		got[f.Analyzer] = f.File
	}
	if got["maporder"] != "dirty.go" || got["wallclock"] != "dirty.go" {
		t.Fatalf("findings = %+v, want maporder and wallclock in dirty.go", findings)
	}

	// Ratchet: record the debt, then gate against it — clean by
	// construction, with the debt reported.
	baseline := filepath.Join(scratch, "baseline.json")
	if exit, _, stderr = run("-baseline", baseline, "-write-baseline", "./..."); exit != 0 {
		t.Fatalf("-write-baseline exit = %d, want 0\n%s", exit, stderr)
	}
	sarif := filepath.Join(t.TempDir(), "out.sarif")
	if exit, _, stderr = run("-baseline", baseline, "-sarif", sarif, "./..."); exit != 0 {
		t.Fatalf("baselined run exit = %d, want 0\n%s", exit, stderr)
	}
	if !strings.Contains(stderr, "0 new finding(s)") || !strings.Contains(stderr, "baselined") {
		t.Errorf("baselined run summary missing debt accounting: %s", stderr)
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				BaselineState string `json:"baselineState"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF output is not JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("SARIF version/runs = %q/%d, want 2.1.0/1", doc.Version, len(doc.Runs))
	}
	for _, r := range doc.Runs[0].Results {
		if r.BaselineState != "unchanged" {
			t.Errorf("baselined finding has baselineState %q, want unchanged", r.BaselineState)
		}
	}

	// A new violation on top of the baseline fails the gate again.
	writeFile("worse.go", `package scratch

func Keys(m map[string]int) (ks []string) {
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`)
	if exit, _, stderr = run("-baseline", baseline, "./..."); exit != 2 {
		t.Fatalf("new-violation run exit = %d, want 2\n%s", exit, stderr)
	}
	if !strings.Contains(stderr, "worse.go") {
		t.Errorf("new finding not reported: %s", stderr)
	}
}
