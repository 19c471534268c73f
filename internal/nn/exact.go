package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Exact parameter accumulation. Floating-point addition is not associative,
// so the value of a naive Σ θ_n depends on the order — and, worse, on the
// grouping — of the additions. A flat federation sums its clients in one
// stable order, but a hierarchical one sums each subtree first and then sums
// the subtree results: a different grouping, hence (under naive float64
// arithmetic) a different last-ulp result every time the topology changes.
//
// Accum removes the order dependence instead of pinning it: it is a
// fixed-point superaccumulator (after Kulisch) wide enough to hold the sum
// of billions of float64 values with NO rounding at all. Adding a float64 is
// exact, merging two accumulators is exact, and therefore the accumulated
// value — and its correctly-rounded float64 reading — is a function of the
// multiset of summands only. Any tree of partial sums over any topology
// produces bit-identical results to the flat sum, which is the foundation of
// the hierarchical federation's bit-identity guarantee (fed.RunTree,
// fed.Aggregator) and of AverageParams below.
//
// Layout: one 2176-bit two's complement fixed-point integer in units of
// 2^-1088, held in 34 little-endian uint64 limbs. Bit index i carries weight
// 2^(i-1088): the lowest finite float64 bit (2^-1074, a subnormal's LSB)
// sits at index 14, the highest (2^1023) at index 2111, leaving 64 bits of
// carry headroom — ~2^63 max-magnitude summands — before the sign bit.
// Non-finite summands cannot be represented in fixed point; they are tallied
// separately and resolved by Round with IEEE semantics (any NaN, or both
// infinity signs, poisons the sum to NaN).
//
// Only a window of the limbs is live. Parameters of similar magnitude span
// 2–3 limbs, so the integer is stored as the limbs [lo, hi) plus a sign
// flag neg: limbs below lo are zero, limbs from hi up are the sign
// extension (all ones when neg is set, zero otherwise), and neither is ever
// read or written. The value is window − neg·2^(64·hi). Every operation —
// reset, add, merge, round, encode, decode — costs the live limbs only. A
// carry or borrow leaving the window flips the sign flag or grows the
// window by one limb instead of rippling through the sign-extension limbs.
// Once the window reaches the top (hi == 34) nothing lies above it: the
// flag is ignored, the sign is the top limb's top bit, and carries off the
// top wrap mod 2^2176 like a full-width accumulator's.

const (
	// accLimbs is the number of 64-bit limbs in the fixed-point integer.
	accLimbs = 34
	// accOffset is the bias between bit index and binary weight: bit i
	// weighs 2^(i-accOffset).
	accOffset = 1088
	// accSubLSB is the bit index of 2^-1074, the smallest nonzero float64
	// magnitude. Every finite summand's mantissa lands at or above it, so
	// bits below accSubLSB are always zero and subnormal readings are exact.
	accSubLSB = 14
)

// MaxAccumWire is the largest wire encoding of one Accum in bytes: the flag
// byte, the non-finite tallies, the span origin and a full-width limb span.
// fed uses it to bound hostile relay-frame allocations.
const MaxAccumWire = 1 + 12 + 1 + 8*accLimbs

// Accum is an exact accumulator for float64 sums: order- and
// grouping-invariant by construction. The zero value is an empty sum. Accum
// is a value type — assignment copies the sum — but the methods take
// pointers; do not copy an Accum concurrently with writes. Two Accums
// holding the same sum need not be equal structs (the live window is not
// canonical); compare their AppendWire encodings instead.
type Accum struct {
	limb [accLimbs]uint64
	// Non-finite tallies, merged additively so they too are
	// order-invariant. They saturate instead of wrapping: a tally is only
	// ever read as zero or nonzero, and a wrapped one would erase it.
	nan, posInf, negInf uint32
	// lo and hi bound the live limb window; neg is the sign extension
	// above it (ignored at hi == accLimbs). See the layout note.
	lo, hi uint8
	neg    bool
}

// Reset empties the accumulator.
func (a *Accum) Reset() {
	a.nan, a.posInf, a.negInf = 0, 0, 0
	a.lo, a.hi, a.neg = 0, 0, false
}

// IsZero reports whether the accumulator holds an empty (or exactly
// cancelled) finite sum with no non-finite tallies.
func (a *Accum) IsZero() bool {
	if a.nan != 0 || a.posInf != 0 || a.negInf != 0 || a.negative() {
		return false
	}
	for _, l := range a.limb[a.lo:a.hi] {
		if l != 0 {
			return false
		}
	}
	return true
}

// satAdd returns x+y, saturating at the uint32 maximum.
func satAdd(x, y uint32) uint32 {
	if s := x + y; s >= x {
		return s
	}
	return math.MaxUint32
}

// Add adds v to the sum, exactly.
func (a *Accum) Add(v float64) {
	b := math.Float64bits(v)
	exp := int(b >> 52 & 0x7ff)
	frac := b & (1<<52 - 1)
	if exp == 0x7ff {
		switch {
		case frac != 0:
			a.nan = satAdd(a.nan, 1)
		case b>>63 != 0:
			a.negInf = satAdd(a.negInf, 1)
		default:
			a.posInf = satAdd(a.posInf, 1)
		}
		return
	}
	m := frac
	e := exp
	if exp != 0 {
		m |= 1 << 52
	} else {
		e = 1 // subnormals share the E=1 weight 2^-1074 for their LSB
	}
	if m == 0 {
		return // ±0 contributes nothing (the sum's sign of zero is +0)
	}
	// The mantissa's LSB has weight 2^(e-1075); place it at bit index s.
	s := e - 1075 + accOffset
	li, off := s>>6, uint(s&63)
	lo := m << off
	var hi uint64
	if off != 0 {
		hi = m >> (64 - off)
	}
	if b>>63 == 0 {
		a.addAt(li, lo, hi)
	} else {
		a.subAt(li, lo, hi)
	}
}

// widen grows the window to cover limbs [l, h), writing each newly live
// limb with the value it stood for: zero below the window, the sign
// extension above it.
func (a *Accum) widen(l, h int) {
	lo, hi := int(a.lo), int(a.hi)
	if lo == hi {
		lo, hi = l, l // an empty window (Reset) is zero wherever it sits
	}
	for lo > l {
		lo--
		a.limb[lo] = 0
	}
	if hi < h {
		var ext uint64
		if a.neg {
			ext = ^uint64(0)
		}
		for ; hi < h; hi++ {
			a.limb[hi] = ext
		}
	}
	a.lo, a.hi = uint8(lo), uint8(hi)
}

// settle folds k·2^(64·hi) — the carry or borrow out of the window top
// plus the sign extension it ran into, k ∈ {-2, -1, 0, 1} — back into the
// representation: 0 and -1 are the two signs; 1 grows the window by a limb
// holding 1 over a zero extension, and -2 by a limb holding 2^64-2 over an
// all-ones one. At the top limb the part beyond 2^2176 is dropped: the sum
// wraps, as two's complement must.
func (a *Accum) settle(k int) {
	hi := int(a.hi)
	if hi == accLimbs {
		return
	}
	a.neg = k < 0
	switch k {
	case 1:
		a.limb[hi] = 1
	case -2:
		a.limb[hi] = ^uint64(1)
	default:
		return
	}
	a.hi = uint8(hi + 1)
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// addAt adds the two-limb quantity (x0, x1) at limb index li, propagating
// the carry through the window only.
func (a *Accum) addAt(li int, x0, x1 uint64) {
	if li < int(a.lo) || li+2 > int(a.hi) {
		a.widen(li, li+2)
	}
	var c uint64
	a.limb[li], c = bits.Add64(a.limb[li], x0, 0)
	a.limb[li+1], c = bits.Add64(a.limb[li+1], x1, c)
	hi := int(a.hi)
	for i := li + 2; c != 0 && i < hi; i++ {
		a.limb[i], c = bits.Add64(a.limb[i], 0, c)
	}
	if c != 0 {
		a.settle(1 - b2i(a.neg))
	}
}

// subAt subtracts the two-limb quantity (x0, x1) at limb index li,
// propagating the borrow through the window only.
func (a *Accum) subAt(li int, x0, x1 uint64) {
	if li < int(a.lo) || li+2 > int(a.hi) {
		a.widen(li, li+2)
	}
	var bw uint64
	a.limb[li], bw = bits.Sub64(a.limb[li], x0, 0)
	a.limb[li+1], bw = bits.Sub64(a.limb[li+1], x1, bw)
	hi := int(a.hi)
	for i := li + 2; bw != 0 && i < hi; i++ {
		a.limb[i], bw = bits.Sub64(a.limb[i], 0, bw)
	}
	if bw != 0 {
		a.settle(-1 - b2i(a.neg))
	}
}

// AddAccum merges another accumulator into this one, exactly: afterwards a
// holds the sum of both multisets. This is the tree-aggregation step — a
// parent absorbing a subtree's partial sum. b may be a itself.
func (a *Accum) AddAccum(b *Accum) {
	a.nan = satAdd(a.nan, b.nan)
	a.posInf = satAdd(a.posInf, b.posInf)
	a.negInf = satAdd(a.negInf, b.negInf)
	lo, hi, bneg := int(b.lo), int(b.hi), b.neg
	if lo == hi {
		return // b's finite part is empty
	}
	a.widen(lo, hi)
	var c uint64
	for i := lo; i < hi; i++ {
		a.limb[i], c = bits.Add64(a.limb[i], b.limb[i], c)
	}
	// Above b's window, add its sign extension while that changes a limb:
	// a carry into a zero extension, or a zero carry into an all-ones one.
	var ext uint64
	if bneg {
		ext = ^uint64(0)
	}
	top := int(a.hi)
	for i := hi; i < top && c != ext&1; i++ {
		a.limb[i], c = bits.Add64(a.limb[i], ext, c)
	}
	a.settle(int(c) - b2i(a.neg) - b2i(bneg))
}

// negative reports the sign of the finite sum.
func (a *Accum) negative() bool {
	if a.hi == accLimbs {
		return a.limb[accLimbs-1]>>63 != 0
	}
	return a.neg
}

// magSpan locates the magnitude |v| of the finite sum: its sign and the
// lowest and highest limbs the magnitude occupies, [l, h], with l > h when
// v is zero. For a negative v, l is also the lowest nonzero window limb
// (hi when the window is all zero, v = -2^(64·hi)), as magLimb expects.
func (a *Accum) magSpan() (neg bool, l, h int) {
	lo, hi := int(a.lo), int(a.hi)
	neg = a.negative()
	l = lo
	for l < hi && a.limb[l] == 0 {
		l++
	}
	h = hi - 1
	if !neg {
		for h >= l && a.limb[h] == 0 {
			h--
		}
		return neg, l, h
	}
	if l == hi {
		return neg, hi, hi
	}
	// |v| = 2^(64·hi) - window: negated limb l, complemented limbs above.
	for h > l && a.limb[h] == ^uint64(0) {
		h--
	}
	return neg, l, h
}

// magLimb returns limb i of |v|, for the sign and lowest limb l that
// magSpan reported. Limbs outside the window read as zero.
func (a *Accum) magLimb(i int, neg bool, l int) uint64 {
	hi := int(a.hi)
	switch {
	case !neg:
		if i < int(a.lo) || i >= hi {
			return 0
		}
		return a.limb[i]
	case i < l || i > hi:
		return 0
	case i == hi:
		return uint64(b2i(l == hi))
	case i == l:
		return -a.limb[i]
	}
	return ^a.limb[i]
}

// magBits returns the 64 bits of |v| starting at bit index from.
func (a *Accum) magBits(from int, neg bool, l int) uint64 {
	li, off := from>>6, uint(from&63)
	w := a.magLimb(li, neg, l) >> off
	if off != 0 {
		w |= a.magLimb(li+1, neg, l) << (64 - off)
	}
	return w
}

// anyBelow reports whether any bit with index < n is set in the window —
// the sticky bit of the rounding step. A two's complement negation keeps
// the lowest set bit in place, so the answer holds for |v| as well.
func (a *Accum) anyBelow(n int) bool {
	lo, hi := int(a.lo), int(a.hi)
	li, off := n>>6, uint(n&63)
	for i := lo; i < li && i < hi; i++ {
		if a.limb[i] != 0 {
			return true
		}
	}
	return off != 0 && li >= lo && li < hi && a.limb[li]<<(64-off) != 0
}

// Round returns the sum as a float64, correctly rounded to nearest (ties to
// even) — the unique reading of the exact value, independent of how the sum
// was ordered or grouped. Non-finite tallies resolve first: any NaN summand,
// or infinities of both signs, yields NaN; otherwise a lone infinity sign
// wins. A sum whose magnitude exceeds the float64 range rounds to ±Inf and a
// tiny one to a subnormal (exactly — subnormal grids are coarser than the
// accumulator's, never finer).
func (a *Accum) Round() float64 {
	if a.nan > 0 || (a.posInf > 0 && a.negInf > 0) {
		return math.NaN()
	}
	if a.posInf > 0 {
		return math.Inf(1)
	}
	if a.negInf > 0 {
		return math.Inf(-1)
	}
	neg, l, h := a.magSpan()
	if l > h {
		return 0
	}
	msb := 64*h + bits.Len64(a.magLimb(h, neg, l)) - 1 // highest set bit index
	lsb := msb - 52                                    // 53-bit normal mantissa window
	if msb < accSubLSB+52 {
		lsb = accSubLSB // subnormal result: fixed grid at 2^-1074
	}
	mant := a.magBits(lsb, neg, l)
	if w := msb - lsb + 1; w < 64 {
		mant &= 1<<uint(w) - 1
	}
	if g := a.magBits(lsb-1, neg, l) & 1; g == 1 && (mant&1 == 1 || a.anyBelow(lsb-1)) {
		// Round up; a mantissa overflow to 2^53 stays exactly representable,
		// so no renormalisation is needed.
		mant++
	}
	// mant·2^(lsb-accOffset) as float64 bits: at lsb == accSubLSB the
	// mantissa is the subnormal bit pattern itself, each step of lsb adds
	// one to the exponent field, and the hidden bit (or a rounding overflow
	// to 2^53) carries into it. Past the largest exponent the sum is ±Inf.
	u := uint64(lsb-accSubLSB)<<52 + mant
	if u > 0x7ff<<52 {
		u = 0x7ff << 52
	}
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u)
}

// Wire encoding flag bits (see AppendWire).
const (
	accFlagNeg       = 1 << 7 // fixed-point value is negative (magnitude follows)
	accFlagNonFinite = 1 << 6 // 12 bytes of non-finite tallies follow the flag
	accSpanMask      = 0x3f   // low bits: number of magnitude limbs encoded
)

// AppendWire appends the accumulator's wire encoding to dst and returns the
// extended slice. The encoding is canonical and compact: one flag byte
// (sign, non-finite marker, magnitude span length), optional non-finite
// tallies, then the trimmed little-endian limb span of the magnitude with
// its origin index. Parameters of similar magnitude span 2–3 limbs, so a
// typical encoded sum costs ~20–30 bytes — the price of shipping a subtree's
// sum with nothing rounded away. At most MaxAccumWire bytes are appended.
func (a *Accum) AppendWire(dst []byte) []byte {
	neg, l, h := a.magSpan()
	var flags byte
	if neg {
		flags |= accFlagNeg
	}
	span := 0
	if l <= h {
		span = h - l + 1
	}
	flags |= byte(span)
	if a.nan != 0 || a.posInf != 0 || a.negInf != 0 {
		flags |= accFlagNonFinite
	}
	dst = append(dst, flags)
	if flags&accFlagNonFinite != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, a.nan)
		dst = binary.LittleEndian.AppendUint32(dst, a.posInf)
		dst = binary.LittleEndian.AppendUint32(dst, a.negInf)
	}
	if span > 0 {
		dst = append(dst, byte(l))
		for i := l; i <= h; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, a.magLimb(i, neg, l))
		}
	}
	return dst
}

// DecodeAccumInto decodes one AppendWire encoding from the front of src into
// a (overwriting it) and returns the number of bytes consumed. Any
// structurally complete encoding decodes — the decoder is total over
// corrupted spans so a hostile peer can force an error, never a panic or an
// oversized allocation.
func DecodeAccumInto(a *Accum, src []byte) (int, error) {
	if len(src) < 1 {
		return 0, fmt.Errorf("nn: accumulator encoding empty")
	}
	flags := src[0]
	span := int(flags & accSpanMask)
	if span > accLimbs {
		return 0, fmt.Errorf("nn: accumulator span %d exceeds %d limbs", span, accLimbs)
	}
	n := 1
	a.Reset()
	if flags&accFlagNonFinite != 0 {
		if len(src) < n+12 {
			return 0, fmt.Errorf("nn: accumulator encoding truncated in tallies")
		}
		a.nan = binary.LittleEndian.Uint32(src[n:])
		a.posInf = binary.LittleEndian.Uint32(src[n+4:])
		a.negInf = binary.LittleEndian.Uint32(src[n+8:])
		n += 12
	}
	if span > 0 {
		if len(src) < n+1+8*span {
			return 0, fmt.Errorf("nn: accumulator encoding truncated in limb span")
		}
		lo := int(src[n])
		n++
		if lo+span > accLimbs {
			return 0, fmt.Errorf("nn: accumulator span [%d,%d) out of range", lo, lo+span)
		}
		hi := lo + span
		for i := lo; i < hi; i++ {
			a.limb[i] = binary.LittleEndian.Uint64(src[n:])
			n += 8
		}
		a.lo, a.hi = uint8(lo), uint8(hi)
		if flags&accFlagNeg != 0 {
			// -|v| = (2^(64·hi) - |v|) - 2^(64·hi): the window's two's
			// complement over a negative sign, unless |v| is zero (the
			// increment carries out).
			var c uint64 = 1
			for i := lo; i < hi; i++ {
				a.limb[i], c = bits.Add64(^a.limb[i], 0, c)
			}
			a.neg = c == 0
		}
	}
	return n, nil
}

// AddParamsAccum adds each of params into the matching accumulator of acc,
// exactly. It is the leaf step of (tree) aggregation: one client's parameter
// vector entering the sum.
func AddParamsAccum(acc []Accum, params []float64) {
	if len(acc) != len(params) {
		panic(fmt.Sprintf("nn: %d accumulators for %d params", len(acc), len(params)))
	}
	for i, p := range params {
		acc[i].Add(p)
	}
}

// MergeAccum merges each accumulator of src into the matching one of dst,
// exactly — a parent node absorbing a subtree's per-parameter sums.
func MergeAccum(dst, src []Accum) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: merging %d accumulators into %d", len(src), len(dst)))
	}
	for i := range dst {
		dst[i].AddAccum(&src[i])
	}
}

// MeanAccum overwrites dst with the n-way mean read from the accumulators:
// the correctly-rounded exact sum times 1/n — exactly the arithmetic of
// AverageParams, so a tree of exact partial sums reproduces the flat mean
// bit-for-bit.
func MeanAccum(dst []float64, acc []Accum, n int) {
	if len(dst) != len(acc) {
		panic(fmt.Sprintf("nn: %d accumulators for %d params", len(acc), len(dst)))
	}
	if n <= 0 {
		panic("nn: mean over a non-positive count")
	}
	inv := 1 / float64(n)
	for i := range dst {
		dst[i] = acc[i].Round() * inv
	}
}
