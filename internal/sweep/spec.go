package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Grid-axis specs are comma-separated items; each item is either a single
// value or a range:
//
//	"256,512,1024"      explicit list
//	"256..8192:*2"      geometric range (start..end, multiply by 2)
//	"1..9:+2"           arithmetic range (start..end inclusive, step 2)
//	"1..4"              arithmetic range with the default step +1
//
// Ranges are inclusive of end when the step lands on it. Values must be
// strictly increasing within a range (step > 1 for *, > 0 for +), so a
// spec always expands to a finite list, and a spec may expand to at most
// maxSpecValues values: a range is counted arithmetically and rejected
// past the cap before any value is materialised.

// maxSpecValues caps the values one grid-axis spec expands to.
const maxSpecValues = 1 << 16

// ParseInt64s expands a grid-axis spec into its value list.
func ParseInt64s(spec string) ([]int64, error) {
	var out []int64
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		vals, err := expandItem(item, maxSpecValues-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty grid spec %q", spec)
	}
	return out, nil
}

// ParseInts is ParseInt64s for int-typed axes (n, p, fan-in).
func ParseInts(spec string) ([]int, error) {
	v64, err := ParseInt64s(spec)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(v64))
	for i, v := range v64 {
		if v != int64(int(v)) {
			return nil, fmt.Errorf("sweep: value %d overflows int in spec %q", v, spec)
		}
		out[i] = int(v)
	}
	return out, nil
}

// expandItem expands one spec item (a value or a range) into values,
// failing when it has more than room of them.
func expandItem(item string, room int) ([]int64, error) {
	lo, rest, isRange := strings.Cut(item, "..")
	if !isRange {
		v, err := strconv.ParseInt(item, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad grid value %q", item)
		}
		if room < 1 {
			return nil, fmt.Errorf("sweep: grid spec has more than %d values", maxSpecValues)
		}
		return []int64{v}, nil
	}
	start, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sweep: bad range start in %q", item)
	}
	hi, stepStr, hasStep := strings.Cut(rest, ":")
	end, err := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sweep: bad range end in %q", item)
	}
	if end < start {
		return nil, fmt.Errorf("sweep: descending range %q", item)
	}
	mul, add := int64(0), int64(1)
	if hasStep {
		stepStr = strings.TrimSpace(stepStr)
		switch {
		case strings.HasPrefix(stepStr, "*"):
			mul, err = strconv.ParseInt(stepStr[1:], 10, 64)
			if err != nil || mul <= 1 {
				return nil, fmt.Errorf("sweep: bad geometric step in %q (need *k with k > 1)", item)
			}
			add = 0
		case strings.HasPrefix(stepStr, "+"):
			add, err = strconv.ParseInt(stepStr[1:], 10, 64)
			if err != nil || add <= 0 {
				return nil, fmt.Errorf("sweep: bad arithmetic step in %q (need +k with k > 0)", item)
			}
		default:
			return nil, fmt.Errorf("sweep: bad step %q in %q (use +k or *k)", stepStr, item)
		}
	}
	if mul > 0 && start <= 0 {
		return nil, fmt.Errorf("sweep: geometric range %q needs a positive start", item)
	}
	// Count the values without stepping past end: v+add and v*mul may
	// overflow int64 before they exceed it.
	var n uint64
	if mul == 0 {
		n = (uint64(end)-uint64(start))/uint64(add) + 1 // 0 only when the range holds all 2^64 int64 values
		if n == 0 {
			n = math.MaxUint64
		}
	} else {
		for v := start; ; v *= mul {
			if n++; v > end/mul {
				break
			}
		}
	}
	if n > uint64(room) {
		return nil, fmt.Errorf("sweep: range %q expands to %d values, past the %d-value cap of a grid spec", item, n, maxSpecValues)
	}
	out := make([]int64, n)
	for i, v := 0, start; i < len(out); i++ {
		out[i] = v
		if mul > 0 {
			v *= mul
		} else {
			v += add
		}
	}
	return out, nil
}

// FormatInt64s renders a value list back to an explicit comma spec (used
// by progress and summary output).
func FormatInt64s(vals []int64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}
