package sweep

import (
	"slices"
	"strings"
	"testing"
)

// FuzzGridSpec holds every grid-axis spec to working or failing
// diagnosably: ParseInt64s either fails with a "sweep:" error, or
// expands to 1 to maxSpecValues values that round-trip through
// FormatInt64s, and ParseInts agrees with it. It never panics. The
// checked-in corpus (testdata/fuzz/FuzzGridSpec) holds the int64
// overflow edges of *k and +k ranges, ranges from the most negative
// int64, and empty items.
func FuzzGridSpec(f *testing.F) {
	for _, s := range []string{
		"256,512,1024", "256..8192:*2", "1..9:+2", "1..4", "7", "2, 4 , 8",
		"1..65536", "1..65537", "4..2", "1..8:*1", "1..8:+0", "1..8:2", "0..8:*2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		vals, err := ParseInt64s(spec)
		ints, intErr := ParseInts(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "sweep: ") || vals != nil {
				t.Fatalf("ParseInt64s(%q) = %d values, error %q; want no values and a sweep: error", spec, len(vals), err)
			}
			if intErr == nil {
				t.Fatalf("ParseInts(%q) accepted a spec ParseInt64s rejects: %v", spec, err)
			}
			return
		}
		if len(vals) < 1 || len(vals) > maxSpecValues {
			t.Fatalf("ParseInt64s(%q) = %d values, want 1 to %d", spec, len(vals), maxSpecValues)
		}
		text := FormatInt64s(vals)
		again, err := ParseInt64s(text)
		if err != nil || !slices.Equal(again, vals) {
			t.Fatalf("ParseInt64s(%q) = %v, but its rendering %q parses to %v, %v", spec, vals, text, again, err)
		}
		if intErr != nil {
			if !strings.HasPrefix(intErr.Error(), "sweep: ") {
				t.Fatalf("ParseInts(%q) error %q lacks the sweep: prefix", spec, intErr)
			}
			return
		}
		if len(ints) != len(vals) {
			t.Fatalf("ParseInts(%q) = %d values, ParseInt64s %d", spec, len(ints), len(vals))
		}
		for i, v := range ints {
			if int64(v) != vals[i] {
				t.Fatalf("ParseInts(%q)[%d] = %d, ParseInt64s %d", spec, i, v, vals[i])
			}
		}
	})
}
