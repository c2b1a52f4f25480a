package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// runCLI invokes cliMain the way main does and captures both streams.
func runCLI(argv ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = cliMain(argv, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIErrors(t *testing.T) {
	cases := []struct {
		name       string
		argv       []string
		wantStderr string
	}{
		{"unknown model", []string{"-model", "bogus", "-n", "64"},
			`unknown model "bogus" (want qsm | sqsm | crqw | qsmgd | bsp | gsm)`},
		{"unknown alg", []string{"-alg", "sort", "-n", "64"},
			`unknown algorithm "sort" (want parity | parity-gadget | or | or-contention | or-rounds | prefix | lac-det | lac-dart | listrank | bsp-parity | bsp-or | bsp-lac-dart | bsp-lac-det | gsm-parity | gsm-or)`},
		{"family mismatch", []string{"-model", "qsm", "-alg", "bsp-parity", "-n", "64"},
			`algorithm "bsp-parity" is a bsp algorithm and does not run on model "qsm" (shared-memory)`},
		{"bad flag", []string{"-no-such-flag"},
			"flag provided but not defined: -no-such-flag"},
		{"bad flag value", []string{"-n", "lots"},
			`invalid value "lots" for flag -n`},
		{"chaos bad model", []string{"chaos", "-model", "pram"},
			`unknown model "pram" (want qsm | sqsm | crqw | bsp | gsm)`},
		{"chaos bad alg", []string{"chaos", "-model", "bsp", "-alg", "lac"},
			`unknown algorithm "lac" for model "bsp" (want parity | or)`},
		{"chaos bad spec", []string{"chaos", "-model", "qsm", "-specs", "zap~0.5"},
			`unknown kind "zap" in spec "zap~0.5"`},
		{"chaos bad flag", []string{"chaos", "-no-such-flag"},
			"flag provided but not defined: -no-such-flag"},
		{"chaos too large", []string{"chaos", "-model", "qsm", "-alg", "parity", "-n", "300000000", "-specs", "mem@1"},
			"-n: 300000000 is too-large for a qsm scenario"},
		{"sweep bad preset", []string{"sweep", "-preset", "mega"},
			`unknown preset "mega" (want tables | chaos | smoke)`},
		{"sweep bad grid spec", []string{"sweep", "-n", "1024..256:*2"},
			"-n:"},
		{"sweep bad model", []string{"sweep", "-models", "pram", "-n", "64"},
			""}, // skips, not errors — asserted separately below
		{"sweep stray arg", []string{"sweep", "stray"},
			`unexpected arguments after sweep flags: ["stray"]`},
		{"sweep resume without output", []string{"sweep", "-resume", "-n", "64"},
			"resume needs a JSONL output path"},
		{"negative proc workers", []string{"-backend", "proc", "-proc-workers", "-1", "-n", "8"},
			"negative proc worker count -1"},
		{"input past int32", []string{"-n", "3000000000"},
			"qsm: 3000000000 processors exceed the 2147483647-processor limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.wantStderr == "" {
				t.Skip("not an error case")
			}
			code, _, stderr := runCLI(c.argv...)
			if code != 1 {
				t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr)
			}
			if !strings.HasPrefix(stderr, "parsim: ") {
				t.Fatalf("stderr %q does not use the parsim: prefix", stderr)
			}
			if !strings.Contains(stderr, c.wantStderr) {
				t.Fatalf("stderr %q does not mention %q", stderr, c.wantStderr)
			}
		})
	}
}

// TestCLIExplicitZeroFails is a regression test: a sweep.Cell reads a
// zero machine axis as "model default", so `-L 0` used to run with L=16
// and `-n 0` failed naming processors, not the flag. Every out-of-domain
// value now exits non-zero with one parsim: line naming the flag, in the
// single-run mode and in the sweep axis specs alike.
func TestCLIExplicitZeroFails(t *testing.T) {
	cases := []struct{ flag, value, floor string }{
		{"n", "0", "1"}, {"p", "-1", "0"}, {"g", "0", "1"}, {"d", "0", "1"},
		{"L", "0", "1"}, {"alpha", "0", "1"}, {"beta", "-3", "1"},
		{"gamma", "0", "1"}, {"fanin", "1", "2"},
	}
	for _, c := range cases {
		for _, argv := range [][]string{
			{"-model", "bsp", "-alg", "bsp-or", "-n", "16", "-" + c.flag, c.value},
			{"sweep", "-models", "bsp", "-algs", "bsp-or", "-n", "16", "-" + c.flag, "4," + c.value},
		} {
			code, stdout, stderr := runCLI(argv...)
			want := "parsim: -" + c.flag + ": must be at least " + c.floor + ", got " + c.value + "\n"
			if code != 1 || stderr != want {
				t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1 and %q", argv, code, stderr, stdout, want)
			}
		}
	}
	// The chaos subcommand and the chaos preset: a negative seed count
	// used to panic in makeslice, n = 0 ran zero or diagnosed-only runs
	// and exited 0, and a negative worker count silently ran one worker.
	for _, c := range []struct {
		argv []string
		want string
	}{
		{[]string{"chaos", "-seeds", "-1"}, "-seeds: must be at least 1, got -1"},
		{[]string{"chaos", "-model", "qsm", "-n", "0"}, "-n: must be at least 1, got 0"},
		{[]string{"chaos", "-backend", "proc", "-proc-workers", "-2"}, "-proc-workers: must be at least 0, got -2"},
		{[]string{"sweep", "-preset", "chaos", "-chaos-seeds", "-1"}, "-chaos-seeds: must be at least 1, got -1"},
		{[]string{"sweep", "-preset", "chaos", "-chaos-n", "0"}, "-chaos-n: must be at least 1, got 0"},
	} {
		code, stdout, stderr := runCLI(c.argv...)
		if want := "parsim: " + c.want + "\n"; code != 1 || stderr != want {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1 and %q", c.argv, code, stderr, stdout, want)
		}
	}
}

// TestCLIORContentionGapOne is a regression test: the contention tree
// runs at fan-in g, so g = 1 used to record a failed cell naming a
// fan-in of 1 the user never set. It now runs at fan-in 2.
func TestCLIORContentionGapOne(t *testing.T) {
	code, stdout, stderr := runCLI("sweep", "-models", "qsm", "-algs", "or-contention", "-g", "1", "-n", "64")
	if code != 0 || !strings.Contains(stdout, "1 ok") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want one ok cell", code, stdout, stderr)
	}
}

// TestCLIORContentionHonorsFanin is a regression test: the contention
// tree ran at fan-in max(g, 2), so an explicit -fanin above g was
// silently ignored. It now runs at max(g, fan-in), and a wider tree is a
// shallower one.
func TestCLIORContentionHonorsFanin(t *testing.T) {
	phases := func(fanin string) int {
		t.Helper()
		code, stdout, stderr := runCLI("-alg", "or-contention", "-g", "2", "-fanin", fanin, "-n", "64")
		if code != 0 {
			t.Fatalf("-fanin %s: exit %d, stderr %q", fanin, code, stderr)
		}
		_, rest, ok := strings.Cut(stdout, " phases=")
		if !ok {
			t.Fatalf("-fanin %s: output %q has no phase count", fanin, stdout)
		}
		n, err := strconv.Atoi(strings.Fields(rest)[0])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if wide, narrow := phases("4"), phases("2"); wide >= narrow {
		t.Fatalf("fan-in 4 takes %d phases, fan-in 2 takes %d; want fewer at fan-in 4", wide, narrow)
	}
}

// TestCLIRunsEveryTable1Row runs each Table 1 row's registry point at its
// smallest size through the single-run flags. The report must show the
// time (T1–T3) or phase count (T4) the experiment records, so every row
// is reproducible from parsim and the point-to-flags mapping is pinned.
func TestCLIRunsEveryTable1Row(t *testing.T) {
	const seed = 1998
	for _, e := range core.Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			n := e.Ns[0]
			row, err := e.RunPoint(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			pt := e.Point(n, seed)
			argv := []string{"-model", pt.Model, "-alg", pt.Alg, "-n", strconv.Itoa(n),
				"-p", strconv.Itoa(pt.P), "-seed", strconv.Itoa(seed)}
			for _, ax := range []struct {
				flag string
				v    int64
			}{{"g", pt.G}, {"L", pt.L}, {"fanin", int64(pt.Fanin)}} {
				if ax.v != 0 {
					argv = append(argv, "-"+ax.flag, strconv.FormatInt(ax.v, 10))
				}
			}
			code, stdout, stderr := runCLI(argv...)
			if code != 0 {
				t.Fatalf("%v: exit %d, stderr %q", argv, code, stderr)
			}
			key := " time="
			if e.Quantity == "rounds" {
				key = " phases="
			}
			want := key + strconv.Itoa(int(row.Measured)) + " "
			if !strings.Contains(stdout, want) {
				t.Errorf("%v: output %q lacks %q", argv, stdout, want)
			}
		})
	}
}

// TestCLIUnsetFlagsKeepKeys pins the cell keys of a sweep that leaves
// the machine axes unset, and shows -p 0 still means p = n, so resumes
// over old JSONL stay byte-identical.
func TestCLIUnsetFlagsKeepKeys(t *testing.T) {
	out := filepath.Join(t.TempDir(), "keys.jsonl")
	code, _, stderr := runCLI("sweep", "-models", "qsm,bsp", "-algs", "parity,bsp-or", "-n", "16", "-p", "0", "-o", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"key":"qsm/parity/n16/p16/g4/d2/L16/a2/b2/c1/f2/seed7/none/strict"`,
		`"key":"bsp/bsp-or/n16/p16/g4/d2/L16/a2/b2/c1/f2/seed7/none/strict"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("sweep output lacks %s:\n%s", key, data)
		}
	}
	code, stdout, stderr := runCLI("-n", "16", "-p", "0")
	if code != 0 || !strings.Contains(stdout, "n=16 p=16") {
		t.Fatalf("-p 0: exit %d, stdout %q, stderr %q; want p = n", code, stdout, stderr)
	}
}

// TestCLISweepHugeRange is a regression test: every value of a range
// used to be materialised before -max-cells applied, so this argv was
// killed out of memory. The spec is now counted and rejected first.
func TestCLISweepHugeRange(t *testing.T) {
	code, stdout, stderr := runCLI("sweep", "-models", "qsm", "-algs", "or", "-n", "1..2147483647:+1", "-max-cells", "1")
	if code == 0 {
		t.Fatalf("exit code 0, stdout %q", stdout)
	}
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "parsim: -n: ") {
		t.Fatalf("stderr %q, want one parsim: line naming -n", stderr)
	}
}

// TestCLISweepGridCap checks the cell cap: each spec is within its own
// cap, but the product of the axes is not.
func TestCLISweepGridCap(t *testing.T) {
	code, _, stderr := runCLI("sweep", "-models", "qsm", "-algs", "or", "-n", "1..65536", "-seeds", "1..65536")
	if code == 0 || !strings.HasPrefix(stderr, "parsim: ") || !strings.Contains(stderr, "grid of 4294967296 cells exceeds the 1048576-cell cap") {
		t.Fatalf("exit %d, stderr %q; want the cell-cap error", code, stderr)
	}
}

func TestCLIUnknownModelSkipsInGrid(t *testing.T) {
	// In a grid an unknown model is a reason-coded skip, not an error:
	// the cell is recorded and the sweep succeeds.
	code, stdout, stderr := runCLI("sweep", "-models", "pram", "-n", "64")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "unknown-model=1") {
		t.Fatalf("stdout %q does not count the unknown-model skip", stdout)
	}
}

func TestCLIHelpIsSuccess(t *testing.T) {
	for _, argv := range [][]string{{"-h"}, {"chaos", "-h"}, {"sweep", "-h"}} {
		code, stdout, stderr := runCLI(argv...)
		if code != 0 {
			t.Errorf("%v: exit code %d, want 0", argv, code)
		}
		if stderr != "" {
			t.Errorf("%v: help leaked to stderr: %q", argv, stderr)
		}
		if !strings.Contains(stdout, "-model") && !strings.Contains(stdout, "-preset") {
			t.Errorf("%v: defaults not printed to stdout: %q", argv, stdout)
		}
	}
}

func TestCLIUsageListsEverySubcommand(t *testing.T) {
	// Registry-driven: whatever the dispatch table knows, -h must list,
	// internal entries (the worker re-exec plumbing) marked as such —
	// and every listed name must actually dispatch (its own -h is a
	// success, not a fall-through to single-run mode).
	_, stdout, _ := runCLI("-h")
	for _, sc := range subcommands {
		line := ""
		for _, l := range strings.Split(stdout, "\n") {
			if strings.Contains(l, "parsim "+sc.name+" ") {
				line = l
				break
			}
		}
		if line == "" {
			t.Errorf("-h output does not list subcommand %q:\n%s", sc.name, stdout)
			continue
		}
		if sc.internal != strings.Contains(line, "internal") {
			t.Errorf("subcommand %q: internal=%t but usage line is %q", sc.name, sc.internal, line)
		}
		code, sub, stderr := runCLI(sc.name, "-h")
		if code != 0 || stderr != "" {
			t.Errorf("parsim %s -h: exit %d, stderr %q", sc.name, code, stderr)
		}
		if sub == stdout {
			t.Errorf("parsim %s -h fell through to single-run usage", sc.name)
		}
	}
}

func TestCLIUsageListsEveryModelAndAlg(t *testing.T) {
	// The drift this PR fixes: -model usage used to omit qsmgd and gsm,
	// -alg usage used to omit gsm-parity and gsm-or.
	_, stdout, _ := runCLI("-h")
	for _, want := range []string{"qsm", "sqsm", "crqw", "qsmgd", "bsp", "gsm",
		"parity", "or-contention", "prefix", "lac-det", "lac-dart", "listrank",
		"bsp-parity", "bsp-or", "gsm-parity", "gsm-or"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-h output misses %q", want)
		}
	}
}

// TestCLISingleRun runs one point per row. The gsm row at n = 17 is a
// regression test: the gather tree needed one more cell than the machine
// was built with, so the run failed with a write out of range.
func TestCLISingleRun(t *testing.T) {
	for _, c := range []struct {
		argv  []string
		wants []string
	}{
		{[]string{"-model", "sqsm", "-alg", "parity", "-n", "64"}, []string{"parity = ", "s-QSM[", "phases="}},
		{[]string{"-model", "gsm", "-alg", "gsm-parity", "-n", "17"}, []string{"parity = ", "GSM[", "phases="}},
	} {
		code, stdout, stderr := runCLI(c.argv...)
		if code != 0 {
			t.Fatalf("%v: exit code %d, stderr %q", c.argv, code, stderr)
		}
		for _, want := range c.wants {
			if !strings.Contains(stdout, want) {
				t.Fatalf("%v: single-run output %q lacks %q", c.argv, stdout, want)
			}
		}
	}
}

func TestCLISweepGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 sweep")
	}
	want, err := os.ReadFile(filepath.Join("..", "tables", "testdata", "tables_seed1998.golden"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI("sweep", "-preset", "tables")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	if stdout != string(want) {
		t.Fatal("parsim sweep -preset tables does not reproduce the tables golden byte-for-byte")
	}
}

func TestCLISweepResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	part := filepath.Join(dir, "part.jsonl")
	grid := []string{"-models", "qsm,sqsm", "-algs", "parity,or", "-n", "64,128", "-seeds", "1..2"}

	if code, _, stderr := runCLI(append([]string{"sweep", "-o", full}, grid...)...); code != 0 {
		t.Fatalf("full run failed: %s", stderr)
	}
	code, stdout, stderr := runCLI(append([]string{"sweep", "-o", part, "-max-cells", "5"}, grid...)...)
	if code != 0 {
		t.Fatalf("interrupted run failed: %s", stderr)
	}
	if !strings.Contains(stdout, "[stopped at max-cells]") {
		t.Fatalf("interrupted run does not say so: %q", stdout)
	}
	code, stdout, stderr = runCLI(append([]string{"sweep", "-o", part, "-resume"}, grid...)...)
	if code != 0 {
		t.Fatalf("resume failed: %s", stderr)
	}
	if !strings.Contains(stdout, "(5 resumed)") {
		t.Fatalf("resume did not report resumed cells: %q", stdout)
	}
	wantB, _ := os.ReadFile(full)
	gotB, _ := os.ReadFile(part)
	if !bytes.Equal(wantB, gotB) {
		t.Fatal("resumed JSONL differs from the uninterrupted run")
	}
}

func TestCLIChaosSingleScenario(t *testing.T) {
	code, stdout, stderr := runCLI("chaos", "-model", "qsm", "-alg", "parity",
		"-specs", "crash@2:p1", "-degraded", "-n", "48")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "verified: answer matches the host-side oracle") {
		t.Fatalf("masked-crash scenario did not verify: %q", stdout)
	}
}

func TestCLISweepSmokePreset(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke grid")
	}
	code, stdout, stderr := runCLI("sweep", "-preset", "smoke")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q\nstdout: %s", code, stderr, stdout)
	}
	// The smoke preset deliberately includes skip cells; none may fail.
	if !strings.Contains(stdout, "0 failed") {
		t.Fatalf("smoke summary: %q", stdout)
	}
}

// streamTail returns the event stream printed at the end of stdout: the
// lines from the first "phase 0 start" on, or nil if none was printed.
func streamTail(stdout string) []string {
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	for i, l := range lines {
		if l == "phase 0 start" {
			return lines[i:]
		}
	}
	return nil
}

// checkStream asserts a printed event stream opens with the first phase
// start and closes with a phase end record.
func checkStream(t *testing.T, stdout string) {
	t.Helper()
	stream := streamTail(stdout)
	if len(stream) < 2 {
		t.Fatalf("no event stream in output: %q", stdout)
	}
	last := stream[len(stream)-1]
	if !strings.HasPrefix(last, "phase ") || !strings.Contains(last, " end: time=") {
		t.Fatalf("event stream does not end with a phase end line: %q", last)
	}
}

func TestCLIChaosVerbosePrintsStream(t *testing.T) {
	argv := []string{"chaos", "-model", "qsm", "-alg", "parity", "-specs", "mem@2", "-n", "16"}
	code, stdout, stderr := runCLI(append(argv, "-v")...)
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	checkStream(t, stdout)

	code, stdout, stderr = runCLI(argv...)
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	if streamTail(stdout) != nil {
		t.Fatalf("event stream printed without -v: %q", stdout)
	}
}

func TestCLIEventsPrintsStream(t *testing.T) {
	code, stdout, stderr := runCLI("-model", "sqsm", "-alg", "parity", "-n", "8", "-events")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr)
	}
	checkStream(t, stdout)
}
