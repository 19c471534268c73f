package nn

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum computes the exact sum of vs with math/big at a precision wide
// enough (the accumulator window itself is 2176 bits) that no rounding
// occurs, then rounds once to float64 nearest-even — the reference reading
// Accum.Round must reproduce.
func bigSum(vs []float64) float64 {
	sum := new(big.Float).SetPrec(2400)
	t := new(big.Float).SetPrec(2400)
	for _, v := range vs {
		t.SetFloat64(v)
		sum.Add(sum, t)
	}
	f, _ := sum.Float64()
	return f
}

// randFinite draws a float64 from the full bit-pattern space, redrawing
// non-finite values: every exponent — subnormals included — and both signs
// are reachable, which is a far harsher distribution than training ever
// produces.
func randFinite(rng *rand.Rand) float64 {
	for {
		v := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

func TestAccumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		vs := make([]float64, n)
		for i := range vs {
			switch rng.Intn(4) {
			case 0:
				// Same-magnitude cancellation pressure.
				vs[i] = float64(rng.Intn(2000)-1000) * math.Ldexp(1, rng.Intn(40)-20)
			case 1:
				// Subnormal and near-subnormal values.
				vs[i] = math.Float64frombits(uint64(rng.Int63n(1 << 54)))
				if rng.Intn(2) == 0 {
					vs[i] = -vs[i]
				}
			default:
				vs[i] = randFinite(rng)
			}
		}
		var a Accum
		for _, v := range vs {
			a.Add(v)
		}
		got, want := a.Round(), bigSum(vs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Accum sum %x (%v), big.Float sum %x (%v), inputs %v",
				trial, math.Float64bits(got), got, math.Float64bits(want), want, vs)
		}
	}
}

func TestAccumSingleValueIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []float64{0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.fffffffffffffp-1023}
	for i := 0; i < 2000; i++ {
		cases = append(cases, randFinite(rng))
	}
	for _, v := range cases {
		var a Accum
		a.Add(v)
		got := a.Round()
		// -0 reads back as +0: an empty/cancelled sum has no sign.
		want := v + 0
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Add(%x)=%v rounds to %x (%v)", math.Float64bits(v), v, math.Float64bits(got), got)
		}
	}
}

// TestAccumGroupingInvariance is the property the hierarchical federation
// stands on: any partition of the summands into subtrees, each summed into
// its own accumulator and then merged, reads back identically to the flat
// accumulation — and identically to exact big.Float arithmetic.
func TestAccumGroupingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = randFinite(rng)
		}
		var flat Accum
		for _, v := range vs {
			flat.Add(v)
		}
		// Random partition into groups, each group summed separately, merged
		// in shuffled order.
		groups := 1 + rng.Intn(6)
		parts := make([]Accum, groups)
		for _, v := range vs {
			parts[rng.Intn(groups)].Add(v)
		}
		order := rng.Perm(groups)
		var tree Accum
		for _, g := range order {
			tree.AddAccum(&parts[g])
		}
		if got, want := tree.Round(), flat.Round(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: grouped sum %v != flat sum %v", trial, got, want)
		}
		if got, want := tree.Round(), bigSum(vs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: grouped sum %v != big.Float sum %v", trial, got, want)
		}
	}
}

func TestAccumOverflowAndNonFinite(t *testing.T) {
	var a Accum
	for i := 0; i < 4; i++ {
		a.Add(math.MaxFloat64)
	}
	if got := a.Round(); !math.IsInf(got, 1) {
		t.Fatalf("4×MaxFloat64 rounds to %v, want +Inf", got)
	}
	a.Add(-math.MaxFloat64)
	a.Add(-math.MaxFloat64)
	a.Add(-math.MaxFloat64)
	if got := a.Round(); got != 2*0x1.fffffffffffffp+1022 {
		// 4·M − 3·M = M exactly... but M is MaxFloat64 itself; check via big.
		want := bigSum([]float64{math.MaxFloat64, math.MaxFloat64, math.MaxFloat64, math.MaxFloat64,
			-math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("overflow cancellation reads %v, want %v", got, want)
		}
	}

	cases := []struct {
		name string
		vs   []float64
		want float64
	}{
		{"nan", []float64{1, math.NaN(), 2}, math.NaN()},
		{"posinf", []float64{1, math.Inf(1)}, math.Inf(1)},
		{"neginf", []float64{math.Inf(-1), 5}, math.Inf(-1)},
		{"bothinf", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
	}
	for _, c := range cases {
		var b Accum
		for _, v := range c.vs {
			b.Add(v)
		}
		got := b.Round()
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Fatalf("%s: Round()=%v, want %v", c.name, got, c.want)
		}
	}
}

// sameAccum reports whether a and b hold the same sum: the same wire
// encoding, the same Round() bits and the same non-finite tallies.
func sameAccum(a, b *Accum) bool {
	return bytes.Equal(a.AppendWire(nil), b.AppendWire(nil)) &&
		math.Float64bits(a.Round()) == math.Float64bits(b.Round()) &&
		a.nan == b.nan && a.posInf == b.posInf && a.negInf == b.negInf
}

// TestAccumTalliesSaturate pins that a non-finite tally never wraps back to
// zero: a relayed sum claiming 2^32-1 NaNs merged with one honest NaN must
// still read NaN, in Add and in AddAccum, in either merge order.
func TestAccumTalliesSaturate(t *testing.T) {
	hostile := []byte{accFlagNonFinite, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	var relayed Accum
	if n, err := DecodeAccumInto(&relayed, hostile); err != nil || n != len(hostile) {
		t.Fatalf("decode consumed %d of %d bytes (%v)", n, len(hostile), err)
	}
	var honest Accum
	honest.Add(0.5)
	honest.Add(math.NaN())
	honest.Add(math.Inf(-1))

	viaAdd := relayed
	viaAdd.Add(math.NaN())
	viaAdd.Add(math.Inf(-1))
	merged := relayed
	merged.AddAccum(&honest)
	reversed := honest
	reversed.AddAccum(&relayed)
	for _, c := range []struct {
		name string
		acc  *Accum
	}{{"Add", &viaAdd}, {"AddAccum", &merged}, {"AddAccum reversed", &reversed}} {
		if c.acc.nan != math.MaxUint32 || c.acc.negInf != math.MaxUint32 {
			t.Errorf("%s: tallies nan=%d negInf=%d, want saturated", c.name, c.acc.nan, c.acc.negInf)
		}
		if got := c.acc.Round(); !math.IsNaN(got) {
			t.Errorf("%s: Round() = %v, want NaN", c.name, got)
		}
	}
}

func TestAccumWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		var a Accum
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0:
				a.Add(math.NaN())
			case 1:
				a.Add(math.Inf(1 - 2*rng.Intn(2)))
			default:
				a.Add(randFinite(rng))
			}
		}
		enc := a.AppendWire(nil)
		if len(enc) > MaxAccumWire {
			t.Fatalf("trial %d: encoding is %d bytes, max %d", trial, len(enc), MaxAccumWire)
		}
		var b Accum
		b.Add(12345) // must be overwritten
		got, err := DecodeAccumInto(&b, enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got != len(enc) {
			t.Fatalf("trial %d: decoded %d of %d bytes", trial, got, len(enc))
		}
		// The live window is not canonical (decoding trims it), so compare
		// the value: the re-encoding, the rounded reading and the tallies.
		if !sameAccum(&a, &b) {
			t.Fatalf("trial %d: wire round-trip changed the accumulator:\n%+v\n%+v", trial, a, b)
		}
		// Trailing bytes must be left unconsumed, not absorbed.
		got, err = DecodeAccumInto(&b, append(enc, 0xee, 0xff))
		if err != nil || got != len(enc) {
			t.Fatalf("trial %d: decode with trailing bytes consumed %d (%v)", trial, got, err)
		}
	}
}

func TestDecodeAccumIntoRejectsCorrupt(t *testing.T) {
	var a Accum
	a.Add(1.5)
	a.Add(math.NaN())
	enc := a.AppendWire(nil)
	var b Accum
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeAccumInto(&b, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	// Span length exceeding the window.
	if _, err := DecodeAccumInto(&b, []byte{35}); err == nil {
		t.Fatal("span 35 accepted")
	}
	// Origin pushing the span past the top limb.
	bad := []byte{2, 33, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}
	if _, err := DecodeAccumInto(&b, bad); err == nil {
		t.Fatal("out-of-range span origin accepted")
	}
}

func TestAccumHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 17
	vecs := make([][]float64, 9)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = randFinite(rng)
		}
	}
	// Flat reference through AverageParams.
	want := make([]float64, dim)
	AverageParams(want, vecs...)

	// Tree: two uneven subtrees, each an accumulator vector, merged.
	left := make([]Accum, dim)
	right := make([]Accum, dim)
	for i, v := range vecs {
		if i < 3 {
			AddParamsAccum(left, v)
		} else {
			AddParamsAccum(right, v)
		}
	}
	MergeAccum(left, right)
	got := make([]float64, dim)
	MeanAccum(got, left, len(vecs))
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("param %d: tree mean %v != flat mean %v", j, got[j], want[j])
		}
	}

	var zero Accum
	if !zero.IsZero() {
		t.Fatal("zero value not IsZero")
	}
	zero.Add(1)
	zero.Add(-1)
	if !zero.IsZero() {
		t.Fatal("exactly cancelled sum not IsZero")
	}
	zero.Add(math.NaN())
	if zero.IsZero() {
		t.Fatal("NaN tally reported IsZero")
	}
}

// TestAverageParamsOrderInvariant pins the new contract of AverageParams
// directly: shuffling the sources never changes a single output bit.
func TestAverageParamsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dim = 33
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		srcs := make([][]float64, n)
		for i := range srcs {
			srcs[i] = make([]float64, dim)
			for j := range srcs[i] {
				srcs[i][j] = randFinite(rng)
			}
		}
		a := make([]float64, dim)
		b := make([]float64, dim)
		AverageParams(a, srcs...)
		perm := rng.Perm(n)
		shuffled := make([][]float64, n)
		for i, p := range perm {
			shuffled[i] = srcs[p]
		}
		AverageParams(b, shuffled...)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("trial %d param %d: %v != %v after shuffle", trial, j, a[j], b[j])
			}
		}
	}
}
