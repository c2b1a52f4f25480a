package backend

import (
	"strings"
	"testing"
)

// Every listed name must pass Valid, and "" must keep selecting inproc —
// the CLI validates flags through Valid before New ever runs.
func TestNamesAreValid(t *testing.T) {
	for _, n := range Names() {
		if !Valid(n) {
			t.Errorf("Valid(%q) = false for a listed backend", n)
		}
	}
	if !Valid("") {
		t.Error(`Valid("") = false, want the empty selection to mean inproc`)
	}
	if Valid("smoke-signal") {
		t.Error(`Valid("smoke-signal") = true for an unknown backend`)
	}
}

// The zero Config and an explicit "inproc" both select the built-in
// merge: a nil engine.Backend with no error and nothing to Close.
func TestNewInprocIsNil(t *testing.T) {
	for _, name := range []string{"", "inproc"} {
		bk, err := New(Config{Name: name})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if bk != nil {
			t.Fatalf("New(%q) = %T, want nil (the engine's built-in path)", name, bk)
		}
	}
}

// An unknown name must fail with a message that lists the valid choices,
// since this error is what flag users see.
func TestNewUnknownName(t *testing.T) {
	bk, err := New(Config{Name: "smoke-signal"})
	if err == nil {
		t.Fatal("New with an unknown name succeeded")
	}
	if bk != nil {
		t.Fatalf("New returned a backend (%T) alongside an error", bk)
	}
	if !strings.Contains(err.Error(), "smoke-signal") || !strings.Contains(err.Error(), Usage()) {
		t.Fatalf("error %q does not name the bad input and the valid set %q", err, Usage())
	}
}

// A negative worker count must fail for every backend name, naming the
// bad value, instead of being clamped to one worker; zero still selects
// the default.
func TestNewProcWorkers(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		wantErr string
	}{
		{"inproc", -1, "negative proc worker count -1"},
		{"proc", -1, "negative proc worker count -1"},
		{"proc", -7, "negative proc worker count -7"},
		{"", -2, "negative proc worker count -2"},
		{"inproc", 0, ""},
		{"inproc", 3, ""},
	}
	for _, c := range cases {
		bk, err := New(Config{Name: c.name, ProcWorkers: c.workers})
		if c.wantErr == "" {
			if err != nil || bk != nil {
				t.Errorf("New(%q, ProcWorkers=%d) = %v, %v; want nil, nil", c.name, c.workers, bk, err)
			}
			continue
		}
		if bk != nil {
			t.Errorf("New(%q, ProcWorkers=%d) returned a backend (%T) alongside an error", c.name, c.workers, bk)
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("New(%q, ProcWorkers=%d) error = %v, want it to contain %q", c.name, c.workers, err, c.wantErr)
		}
	}
}

// Usage must mention every selectable backend so flag help stays in sync
// with Names.
func TestUsageListsAllNames(t *testing.T) {
	u := Usage()
	for _, n := range Names() {
		if !strings.Contains(u, n) {
			t.Errorf("Usage() = %q missing backend %q", u, n)
		}
	}
}
