// Package boolfn implements the exact algebra of Boolean (and
// integer-valued) functions on {0,1}^n used by the degree-argument lower
// bounds of MacKenzie & Ramachandran (SPAA 1998), Section 2.5:
//
//   - Fact 2.1 (Smolensky): every f: {0,1}^n → ℤ has a unique expansion
//     f = Σ_S α_S(f)·m_S over positive monomials m_S = Π_{i∈S} x_i with
//     integer coefficients. Coefficients returns the α_S via a Möbius
//     transform over the subset lattice; Eval reconstructs values.
//   - deg(f) = max{|S| : α_S(f) ≠ 0}, with the composition rules of
//     Fact 2.2 (deg(f∧g) ≤ deg f + deg g, deg(¬f) = deg f, restriction
//     never increases degree).
//   - Certificate complexity C(f) (Nisan) with Fact 2.3: C(f) ≤ deg(f)^4.
//
// These facts anchor the Parity and OR lower bounds: deg(Parity_n) =
// deg(OR_n) = n, so any computation whose cell contents have degree < n
// cannot have produced the answer (Theorems 3.1 and 7.2).
//
// Functions are represented by dense truth tables indexed by input masks
// (bit i of the mask is x_i), so the package is exact for n up to ~20.
package boolfn

import (
	"fmt"
	"math/bits"
)

// MaxVars bounds the arity of functions this package will materialise
// (a dense table has 2^n entries).
const MaxVars = 24

// Fn is an integer-valued function on {0,1}^n represented by its truth
// table: table[mask] = f(x) where bit i of mask is x_i.
type Fn struct {
	n     int
	table []int64
}

// New builds a function from an evaluator.
func New(n int, eval func(mask uint32) int64) (*Fn, error) {
	if n < 0 || n > MaxVars {
		return nil, fmt.Errorf("boolfn: arity %d out of range [0,%d]", n, MaxVars)
	}
	t := make([]int64, 1<<uint(n))
	for m := range t {
		t[m] = eval(uint32(m))
	}
	return &Fn{n: n, table: t}, nil
}

// MustNew is New but panics on error (for statically valid arities).
func MustNew(n int, eval func(mask uint32) int64) *Fn {
	f, err := New(n, eval)
	if err != nil {
		panic(err)
	}
	return f
}

// FromTable builds a function from an explicit truth table of length 2^n.
func FromTable(n int, table []int64) (*Fn, error) {
	if n < 0 || n > MaxVars {
		return nil, fmt.Errorf("boolfn: arity %d out of range", n)
	}
	if len(table) != 1<<uint(n) {
		return nil, fmt.Errorf("boolfn: table length %d, want %d", len(table), 1<<uint(n))
	}
	return &Fn{n: n, table: append([]int64(nil), table...)}, nil
}

// N returns the arity.
func (f *Fn) N() int { return f.n }

// At evaluates f at the input encoded by mask.
func (f *Fn) At(mask uint32) int64 { return f.table[mask] }

// IsBoolean reports whether every value is 0 or 1.
func (f *Fn) IsBoolean() bool {
	for _, v := range f.table {
		if v != 0 && v != 1 {
			return false
		}
	}
	return true
}

// Coefficients returns the unique integer coefficients α_S of the monomial
// expansion f = Σ_S α_S·m_S (Fact 2.1), indexed by the subset mask S.
//
// The transform is the Möbius inversion over the subset lattice:
// α_S = Σ_{T ⊆ S} (−1)^{|S|−|T|} f(T), computed in n·2^n time.
func (f *Fn) Coefficients() []int64 {
	c := append([]int64(nil), f.table...)
	n := f.n
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := range c {
			if m&bit != 0 {
				c[m] -= c[m^bit]
			}
		}
	}
	return c
}

// FromCoefficients reconstructs a function from monomial coefficients via
// the zeta transform f(a) = Σ_{S ⊆ a} α_S. It is the exact inverse of
// Coefficients, witnessing the uniqueness half of Fact 2.1.
func FromCoefficients(n int, coef []int64) (*Fn, error) {
	if len(coef) != 1<<uint(n) {
		return nil, fmt.Errorf("boolfn: coefficient length %d, want %d", len(coef), 1<<uint(n))
	}
	t := append([]int64(nil), coef...)
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := range t {
			if m&bit != 0 {
				t[m] += t[m^bit]
			}
		}
	}
	return &Fn{n: n, table: t}, nil
}

// Degree returns deg(f) = max{|S| : α_S ≠ 0}; the degree of the zero
// function is 0.
func (f *Fn) Degree() int {
	c := f.Coefficients()
	d := 0
	for m, v := range c {
		if v != 0 {
			if k := bits.OnesCount32(uint32(m)); k > d {
				d = k
			}
		}
	}
	return d
}

// --- pointwise algebra ------------------------------------------------------

func (f *Fn) binary(g *Fn, op func(a, b int64) int64) (*Fn, error) {
	if f.n != g.n {
		return nil, fmt.Errorf("boolfn: arity mismatch %d vs %d", f.n, g.n)
	}
	t := make([]int64, len(f.table))
	for m := range t {
		t[m] = op(f.table[m], g.table[m])
	}
	return &Fn{n: f.n, table: t}, nil
}

// And returns f∧g (defined for Boolean-valued f, g as pointwise product).
func (f *Fn) And(g *Fn) (*Fn, error) {
	return f.binary(g, func(a, b int64) int64 { return a * b })
}

// Or returns f∨g = f + g − f·g.
func (f *Fn) Or(g *Fn) (*Fn, error) {
	return f.binary(g, func(a, b int64) int64 { return a + b - a*b })
}

// Xor returns f⊕g = f + g − 2·f·g.
func (f *Fn) Xor(g *Fn) (*Fn, error) {
	return f.binary(g, func(a, b int64) int64 { return a + b - 2*a*b })
}

// Not returns ¬f = 1 − f.
func (f *Fn) Not() *Fn {
	t := make([]int64, len(f.table))
	for m := range t {
		t[m] = 1 - f.table[m]
	}
	return &Fn{n: f.n, table: t}
}

// Add returns f+g as an integer-valued function.
func (f *Fn) Add(g *Fn) (*Fn, error) {
	return f.binary(g, func(a, b int64) int64 { return a + b })
}

// Restrict fixes variable i to val∈{0,1} and returns the induced function on
// the remaining n−1 variables (variables above i shift down). Fact 2.2(4):
// deg of the restriction never exceeds deg(f).
func (f *Fn) Restrict(i int, val int64) (*Fn, error) {
	if i < 0 || i >= f.n {
		return nil, fmt.Errorf("boolfn: restrict variable %d of %d", i, f.n)
	}
	if val != 0 && val != 1 {
		return nil, fmt.Errorf("boolfn: restriction value %d not in {0,1}", val)
	}
	n2 := f.n - 1
	t := make([]int64, 1<<uint(n2))
	low := uint32(1)<<uint(i) - 1
	for m := range t {
		mm := uint32(m)
		full := (mm & low) | ((mm &^ low) << 1)
		if val == 1 {
			full |= 1 << uint(i)
		}
		t[m] = f.table[full]
	}
	return &Fn{n: n2, table: t}, nil
}

// --- certificate complexity --------------------------------------------------

// CertificateAt returns the size of a minimum certificate of f at input a:
// the least k such that some set S of k variables has the property that
// every input agreeing with a on S has the same value f(a). Exponential in
// n; intended for n ≤ ~12.
func (f *Fn) CertificateAt(a uint32) int {
	want := f.table[a]
	n := f.n
	// Iterate subsets in increasing popcount via sorted enumeration.
	for k := 0; k <= n; k++ {
		for s := uint32(0); s < 1<<uint(n); s++ {
			if bits.OnesCount32(s) != k {
				continue
			}
			if f.certified(a, s, want) {
				return k
			}
		}
	}
	return n
}

// certified reports whether fixing a's values on set s forces value want.
func (f *Fn) certified(a, s uint32, want int64) bool {
	free := ^s & (1<<uint(f.n) - 1)
	// Enumerate subcube: all b with b&s == a&s.
	base := a & s
	for sub := free; ; sub = (sub - 1) & free {
		if f.table[base|sub] != want {
			return false
		}
		if sub == 0 {
			return true
		}
	}
}

// Certificate returns C(f) = max over inputs a of CertificateAt(a)
// (Nisan's certificate complexity as used in Fact 2.3).
func (f *Fn) Certificate() int {
	c := 0
	for a := uint32(0); a < 1<<uint(f.n); a++ {
		if k := f.CertificateAt(a); k > c {
			c = k
		}
	}
	return c
}

// --- named functions ---------------------------------------------------------

// Parity returns the n-variable parity function (1 iff an odd number of
// inputs are 1). Its degree is exactly n — the anchor of Theorem 3.1.
func Parity(n int) *Fn {
	return MustNew(n, func(m uint32) int64 {
		return int64(bits.OnesCount32(m) & 1)
	})
}

// OR returns the n-variable OR. Its degree is exactly n — the anchor of
// Theorem 7.2.
func OR(n int) *Fn {
	return MustNew(n, func(m uint32) int64 {
		if m != 0 {
			return 1
		}
		return 0
	})
}

// AND returns the n-variable AND (a single monomial of degree n).
func AND(n int) *Fn {
	full := uint32(1)<<uint(n) - 1
	return MustNew(n, func(m uint32) int64 {
		if m == full {
			return 1
		}
		return 0
	})
}

// Threshold returns the n-variable threshold-k function (1 iff ≥ k inputs
// are 1).
func Threshold(n, k int) *Fn {
	return MustNew(n, func(m uint32) int64 {
		if bits.OnesCount32(m) >= k {
			return 1
		}
		return 0
	})
}

// Majority returns Threshold(n, ⌈(n+1)/2⌉).
func Majority(n int) *Fn { return Threshold(n, (n+2)/2) }

// Indicator returns χ_{A} for A given as a set of input masks — the
// characteristic functions used throughout Section 3 and Section 5.
func Indicator(n int, members []uint32) *Fn {
	set := make(map[uint32]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	return MustNew(n, func(m uint32) int64 {
		if set[m] {
			return 1
		}
		return 0
	})
}
