// Package rational provides exact rational arithmetic for the polyhedral
// model and the symbolic expression engine.
//
// It is a thin veneer over math/big.Rat with value semantics tuned for how
// Mira uses numbers: loop bounds, lattice-point counts, and Faulhaber
// (Bernoulli) coefficients. Exactness matters — iteration counts are
// integers and the generated model must reproduce them without float
// drift even at 1e10-scale counts.
package rational

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
)

// Rat is an immutable exact rational number. The zero value is 0.
type Rat struct {
	r *big.Rat // nil means zero
}

// smallInts caches the rationals 0..smallIntMax. Rat values are
// immutable (every operation allocates a fresh big.Rat), so sharing the
// backing pointers is safe, and grid sweeps build environments from
// small integers constantly.
const smallIntMax = 256

var smallInts = func() [smallIntMax + 1]Rat {
	var out [smallIntMax + 1]Rat
	for i := range out {
		out[i] = Rat{big.NewRat(int64(i), 1)}
	}
	return out
}()

// Zero and One are the common constants.
var (
	Zero = FromInt(0)
	One  = FromInt(1)
)

// FromInt returns the rational n/1.
func FromInt(n int64) Rat {
	if n >= 0 && n <= smallIntMax {
		return smallInts[n]
	}
	return Rat{big.NewRat(n, 1)}
}

// FromFrac returns the rational num/den. It panics if den == 0.
func FromFrac(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	return Rat{big.NewRat(num, den)}
}

// FromFloat converts a float64 exactly; NaN/Inf yield an error.
func FromFloat(f float64) (Rat, error) {
	r := new(big.Rat)
	if r.SetFloat64(f) == nil {
		return Rat{}, fmt.Errorf("rational: cannot represent %g", f)
	}
	return Rat{r}, nil
}

func (a Rat) big() *big.Rat {
	if a.r == nil {
		return new(big.Rat)
	}
	return a.r
}

// Add returns a + b.
func (a Rat) Add(b Rat) Rat { return Rat{new(big.Rat).Add(a.big(), b.big())} }

// Sub returns a - b.
func (a Rat) Sub(b Rat) Rat { return Rat{new(big.Rat).Sub(a.big(), b.big())} }

// Mul returns a * b.
func (a Rat) Mul(b Rat) Rat { return Rat{new(big.Rat).Mul(a.big(), b.big())} }

// Div returns a / b. It panics if b is zero.
func (a Rat) Div(b Rat) Rat {
	if b.Sign() == 0 {
		panic("rational: division by zero")
	}
	return Rat{new(big.Rat).Quo(a.big(), b.big())}
}

// Neg returns -a.
func (a Rat) Neg() Rat { return Rat{new(big.Rat).Neg(a.big())} }

// Cmp returns -1, 0, or 1 according to a <=> b.
func (a Rat) Cmp(b Rat) int { return a.big().Cmp(b.big()) }

// Sign returns the sign of a.
func (a Rat) Sign() int { return a.big().Sign() }

// Equal reports a == b.
func (a Rat) Equal(b Rat) bool { return a.Cmp(b) == 0 }

// IsInt reports whether a is an integer.
func (a Rat) IsInt() bool { return a.big().IsInt() }

// Int64 returns the value as an int64. ok is false when the value is not an
// integer or does not fit.
func (a Rat) Int64() (v int64, ok bool) {
	b := a.big()
	if !b.IsInt() {
		return 0, false
	}
	n := b.Num()
	if !n.IsInt64() {
		return 0, false
	}
	return n.Int64(), true
}

// Floor returns the largest integer <= a.
func (a Rat) Floor() Rat {
	b := a.big()
	q := new(big.Int).Quo(b.Num(), b.Denom())
	if b.Sign() < 0 && !b.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return Rat{new(big.Rat).SetInt(q)}
}

// Ceil returns the smallest integer >= a.
func (a Rat) Ceil() Rat {
	b := a.big()
	q := new(big.Int).Quo(b.Num(), b.Denom())
	if b.Sign() > 0 && !b.IsInt() {
		q.Add(q, big.NewInt(1))
	}
	return Rat{new(big.Rat).SetInt(q)}
}

// FloorDiv returns floor(a / b). It panics if b is zero.
func (a Rat) FloorDiv(b Rat) Rat { return a.Div(b).Floor() }

// Max returns the larger of a, b.
func (a Rat) Max(b Rat) Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// Min returns the smaller of a, b.
func (a Rat) Min(b Rat) Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// NumDen returns the numerator and denominator in lowest terms. It panics
// if either does not fit in int64 (counts and steps in Mira's models are
// built from int64 source literals, so this cannot occur in practice).
func (a Rat) NumDen() (num, den int64) {
	num, den, ok := a.Int64Frac()
	if !ok {
		panic("rational: NumDen overflow")
	}
	return num, den
}

// Int64Frac is NumDen without the panic: ok is false when either part
// does not fit in int64.
func (a Rat) Int64Frac() (num, den int64, ok bool) {
	b := a.big()
	if !b.Num().IsInt64() || !b.Denom().IsInt64() {
		return 0, 0, false
	}
	return b.Num().Int64(), b.Denom().Int64(), true
}

// Float64 returns the nearest float64 value.
func (a Rat) Float64() float64 {
	f, _ := a.big().Float64()
	return f
}

// String renders the value, as an integer when possible.
func (a Rat) String() string {
	b := a.big()
	if b.IsInt() {
		return b.Num().String()
	}
	return b.RatString()
}

// PythonString renders the value as a Python expression preserving
// exactness (integers plain, fractions as Fraction-free division).
func (a Rat) PythonString() string {
	b := a.big()
	if b.IsInt() {
		return b.Num().String()
	}
	return fmt.Sprintf("(%s/%s)", b.Num().String(), b.Denom().String())
}

// Binary forms of AppendBinary: a value whose numerator and denominator
// both fit in int64 (every count Mira builds from source literals) is a
// varint numerator and a uvarint denominator; anything larger spells out
// both magnitudes as length-prefixed big-endian bytes.
const (
	binarySmall byte = iota
	binaryBig
)

// AppendBinary appends the portable encoding of a to dst. ReadBinary is
// its inverse.
func (a Rat) AppendBinary(dst []byte) []byte {
	if num, den, ok := a.Int64Frac(); ok {
		dst = append(dst, binarySmall)
		dst = binary.AppendVarint(dst, num)
		return binary.AppendUvarint(dst, uint64(den))
	}
	b := a.big()
	sign := byte(0)
	if b.Sign() < 0 {
		sign = 1
	}
	dst = append(dst, binaryBig, sign)
	for _, mag := range []*big.Int{b.Num(), b.Denom()} {
		raw := mag.Bytes() // absolute value
		dst = binary.AppendUvarint(dst, uint64(len(raw)))
		dst = append(dst, raw...)
	}
	return dst
}

// ReadBinary decodes one value encoded by AppendBinary from the front of
// src and reports how many bytes it used. Malformed input (truncation, a
// zero denominator, an unknown form) is an error, never a panic; the
// cost is linear in the bytes consumed.
func ReadBinary(src []byte) (Rat, int, error) {
	if len(src) == 0 {
		return Rat{}, 0, fmt.Errorf("rational: truncated value")
	}
	switch src[0] {
	case binarySmall:
		off := 1
		num, n := binary.Varint(src[off:])
		if n <= 0 {
			return Rat{}, 0, fmt.Errorf("rational: bad numerator")
		}
		off += n
		den, n := binary.Uvarint(src[off:])
		if n <= 0 || den == 0 || den > math.MaxInt64 {
			return Rat{}, 0, fmt.Errorf("rational: bad denominator")
		}
		off += n
		if den == 1 {
			return FromInt(num), off, nil
		}
		return Rat{big.NewRat(num, int64(den))}, off, nil
	case binaryBig:
		if len(src) < 2 || src[1] > 1 {
			return Rat{}, 0, fmt.Errorf("rational: bad sign")
		}
		off := 2
		var mags [2]*big.Int
		for i := range mags {
			l, n := binary.Uvarint(src[off:])
			if n <= 0 || uint64(len(src)-off-n) < l {
				return Rat{}, 0, fmt.Errorf("rational: truncated magnitude")
			}
			off += n
			mags[i] = new(big.Int).SetBytes(src[off : off+int(l)])
			off += int(l)
		}
		if mags[1].Sign() == 0 {
			return Rat{}, 0, fmt.Errorf("rational: zero denominator")
		}
		if src[1] == 1 {
			mags[0].Neg(mags[0])
		}
		return Rat{new(big.Rat).SetFrac(mags[0], mags[1])}, off, nil
	}
	return Rat{}, 0, fmt.Errorf("rational: unknown binary form %d", src[0])
}
