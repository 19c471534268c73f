package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// accModel is FuzzAccum's reference for one accumulator: the exact sum as a
// big.Int in units of 2^-1088 reduced mod 2^2176, the tallies saturating at
// the uint32 maximum, and — while the sum is built from float summands alone
// — the summands themselves, so bigSum can read them independently.
type accModel struct {
	fix                 big.Int
	nan, posInf, negInf uint64
	vs                  []float64
	pure                bool
}

var (
	modelMod  = new(big.Int).Lsh(big.NewInt(1), 64*accLimbs)   // 2^2176
	modelSign = new(big.Int).Lsh(big.NewInt(1), 64*accLimbs-1) // 2^2175
)

func newModel() *accModel { return &accModel{pure: true} }

func satTally(x uint64) uint64 { return min(x, math.MaxUint32) }

func (m *accModel) reset() { *m = accModel{pure: true} }

func (m *accModel) addFixed(x *big.Int) {
	m.fix.Add(&m.fix, x)
	m.fix.Mod(&m.fix, modelMod)
}

func (m *accModel) add(v float64) {
	switch {
	case math.IsNaN(v):
		m.nan = satTally(m.nan + 1)
	case math.IsInf(v, 1):
		m.posInf = satTally(m.posInf + 1)
	case math.IsInf(v, -1):
		m.negInf = satTally(m.negInf + 1)
	default:
		f := new(big.Float).SetFloat64(v)
		x, acc := f.SetMantExp(f, accOffset).Int(nil)
		if acc != big.Exact {
			panic("float64 is not a multiple of 2^-1088")
		}
		m.addFixed(x)
	}
	m.keep(m.pure, v)
}

// keep records summands for the bigSum cross-check while the sum is built
// from floats alone and stays short enough to re-sum at every step.
func (m *accModel) keep(pure bool, vs ...float64) {
	m.pure = m.pure && pure && len(m.vs)+len(vs) <= 64
	if m.pure {
		m.vs = append(m.vs, vs...)
	} else {
		m.vs = nil
	}
}

func (m *accModel) merge(o *accModel) {
	m.addFixed(new(big.Int).Set(&o.fix))
	m.nan = satTally(m.nan + o.nan)
	m.posInf = satTally(m.posInf + o.posInf)
	m.negInf = satTally(m.negInf + o.negInf)
	m.keep(o.pure, o.vs...)
}

func (m *accModel) clone() *accModel {
	c := &accModel{nan: m.nan, posInf: m.posInf, negInf: m.negInf, pure: m.pure}
	c.fix.Set(&m.fix)
	c.vs = append([]float64(nil), m.vs...)
	return c
}

// signed returns the sum as a signed integer (two's complement reading).
func (m *accModel) signed() *big.Int {
	x := new(big.Int).Set(&m.fix)
	if x.Cmp(modelSign) >= 0 {
		x.Sub(x, modelMod)
	}
	return x
}

// round is the correctly rounded reading of the model, with Round's
// non-finite rules.
func (m *accModel) round() float64 {
	switch {
	case m.nan > 0 || (m.posInf > 0 && m.negInf > 0):
		return math.NaN()
	case m.posInf > 0:
		return math.Inf(1)
	case m.negInf > 0:
		return math.Inf(-1)
	}
	f := new(big.Float).SetPrec(64*accLimbs + 64).SetInt(m.signed())
	v, _ := f.SetMantExp(f, -accOffset).Float64()
	return v
}

// encode is the canonical wire encoding of the model, written from the
// format description independently of AppendWire.
func (m *accModel) encode() []byte {
	x := m.signed()
	var flags byte
	if x.Sign() < 0 {
		flags |= accFlagNeg
		x.Neg(x)
	}
	be := x.FillBytes(make([]byte, 8*accLimbs))
	limbs := make([]uint64, accLimbs)
	for i := range limbs {
		limbs[i] = binary.BigEndian.Uint64(be[8*(accLimbs-1-i):])
	}
	lo, hi := 0, accLimbs
	for lo < hi && limbs[lo] == 0 {
		lo++
	}
	for hi > lo && limbs[hi-1] == 0 {
		hi--
	}
	flags |= byte(hi - lo)
	tallies := m.nan != 0 || m.posInf != 0 || m.negInf != 0
	if tallies {
		flags |= accFlagNonFinite
	}
	out := []byte{flags}
	if tallies {
		for _, t := range []uint64{m.nan, m.posInf, m.negInf} {
			out = binary.LittleEndian.AppendUint32(out, uint32(t))
		}
	}
	if hi > lo {
		out = append(out, byte(lo))
		for _, l := range limbs[lo:hi] {
			out = binary.LittleEndian.AppendUint64(out, l)
		}
	}
	return out
}

// decodeModel parses one wire encoding from the front of src into a model,
// independently of DecodeAccumInto, reporting the bytes it spans and
// whether it is well formed.
func decodeModel(src []byte) (*accModel, int, bool) {
	m := &accModel{}
	if len(src) < 1 {
		return nil, 0, false
	}
	flags, n := src[0], 1
	span := int(flags & accSpanMask)
	if span > accLimbs {
		return nil, 0, false
	}
	if flags&accFlagNonFinite != 0 {
		if len(src) < n+12 {
			return nil, 0, false
		}
		m.nan = uint64(binary.LittleEndian.Uint32(src[n:]))
		m.posInf = uint64(binary.LittleEndian.Uint32(src[n+4:]))
		m.negInf = uint64(binary.LittleEndian.Uint32(src[n+8:]))
		n += 12
	}
	if span == 0 {
		return m, n, true
	}
	if len(src) < n+1+8*span || int(src[n])+span > accLimbs {
		return nil, 0, false
	}
	origin := int(src[n])
	n++
	mag := new(big.Int)
	for i := span - 1; i >= 0; i-- {
		mag.Lsh(mag, 64)
		mag.Or(mag, new(big.Int).SetUint64(binary.LittleEndian.Uint64(src[n+8*i:])))
	}
	n += 8 * span
	mag.Lsh(mag, uint(64*origin))
	if flags&accFlagNeg != 0 {
		mag.Neg(mag)
	}
	m.addFixed(mag)
	return m, n, true
}

// FuzzAccum is a differential fuzzer for Accum: it runs a random program of
// Add, Reset, grouped AddAccum (self-merges included), copies, relay hops
// through AppendWire→DecodeAccumInto and raw hostile frames over three
// accumulators, and after every step checks the touched accumulator against
// accModel — Round() bit-for-bit against the big.Int reading and, for sums
// of floats alone, against bigSum; AppendWire byte-for-byte against the
// model's encoding; and a re-encoding after decode against the original
// bytes.
//
// Program bytes: an op byte (kind = b%8, target i = b/8%3, source
// j = b/24%3) followed by its operands.
func FuzzAccum(f *testing.F) {
	for _, seed := range accumFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		var accs [3]Accum
		models := [3]*accModel{newModel(), newModel(), newModel()}
		for step := 0; len(prog) > 0; step++ {
			op := prog[0]
			prog = prog[1:]
			i, j := int(op/8%3), int(op/24%3)
			switch op % 8 {
			case 0: // Add a float64 given bit for bit
				if len(prog) < 8 {
					return
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(prog))
				prog = prog[8:]
				accs[i].Add(v)
				models[i].add(v)
			case 1: // Add a small integer at a coarse power of two
				if len(prog) < 2 {
					return
				}
				v := math.Ldexp(float64(int8(prog[0])), 8*int(int8(prog[1])))
				prog = prog[2:]
				accs[i].Add(v)
				models[i].add(v)
			case 2:
				accs[i].Reset()
				models[i].reset()
			case 3: // grouped merge; i == j doubles the sum
				accs[i].AddAccum(&accs[j])
				models[i].merge(models[j].clone())
			case 4: // relay hop: encode, decode into a dirty accumulator
				enc := accs[i].AppendWire(nil)
				if len(enc) > MaxAccumWire {
					t.Fatalf("step %d: encoding is %d bytes, max %d", step, len(enc), MaxAccumWire)
				}
				var hop Accum
				hop.Add(-3.75)
				hop.Add(math.Inf(1))
				n, err := DecodeAccumInto(&hop, enc)
				if err != nil || n != len(enc) {
					t.Fatalf("step %d: relay decode consumed %d of %d bytes (%v)", step, n, len(enc), err)
				}
				if re := hop.AppendWire(nil); !bytes.Equal(re, enc) {
					t.Fatalf("step %d: re-encoding %x differs from %x", step, re, enc)
				}
				accs[i] = hop
			case 5: // a raw, possibly hostile, frame from the program
				var in Accum
				in.Add(1e300)
				n, err := DecodeAccumInto(&in, prog)
				m, mn, ok := decodeModel(prog)
				if ok != (err == nil) {
					t.Fatalf("step %d: decoder error %v, reference well-formed %v, frame %x", step, err, ok, prog)
				}
				if !ok {
					return
				}
				if n != mn {
					t.Fatalf("step %d: decoder consumed %d bytes, reference %d", step, n, mn)
				}
				prog = prog[n:]
				accs[i] = in
				models[i] = m
			case 6: // value copy
				accs[i] = accs[j]
				models[i] = models[j].clone()
			case 7: // Add a boundary value
				if len(prog) < 1 {
					return
				}
				v := accumBoundary[int(prog[0])%len(accumBoundary)]
				prog = prog[1:]
				accs[i].Add(v)
				models[i].add(v)
			}
			checkAccum(t, step, &accs[i], models[i])
		}
	})
}

// checkAccum compares one accumulator with its model.
func checkAccum(t *testing.T, step int, a *Accum, m *accModel) {
	t.Helper()
	got, want := a.Round(), m.round()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: Round() = %x (%v), reference %x (%v)", step, math.Float64bits(got), got, math.Float64bits(want), want)
	}
	if m.pure && m.nan == 0 && m.posInf == 0 && m.negInf == 0 {
		if ref := bigSum(m.vs); math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("step %d: Round() = %v, bigSum %v", step, got, ref)
		}
	}
	if enc, want := a.AppendWire(nil), m.encode(); !bytes.Equal(enc, want) {
		t.Fatalf("step %d: AppendWire %x, reference %x", step, enc, want)
	}
	if a.IsZero() != (m.fix.Sign() == 0 && m.nan == 0 && m.posInf == 0 && m.negInf == 0) {
		t.Fatalf("step %d: IsZero() = %v for reference %v", step, a.IsZero(), m.fix.String())
	}
}

// accumBoundary lists summands at the representation's edges: the float64
// extremes, subnormals, and powers of two on limb boundaries.
var accumBoundary = []float64{
	math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, -0x1p-1022, 0x1.fffffffffffffp-1023, -0x1.fffffffffffffp-1023,
	1, -1, 0x1p64, -0x1p64, 0x1p-64, -0x1p-64, 0x1p1023, -0x1p1023,
	0x1p-1024, -0x1p-1024, 0x1.fffffffffffffp-1, -0x1.fffffffffffffp-1,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
}

// Program builders for the seed corpus.
func opAdd(i int, v float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{byte(8 * i)}, math.Float64bits(v))
}
func opReset(i int) []byte    { return []byte{byte(8*i + 2)} }
func opMerge(i, j int) []byte { return []byte{byte(24*j + 8*i + 3)} }
func opHop(i int) []byte      { return []byte{byte(8*i + 4)} }
func opFrame(i int, frame ...byte) []byte {
	return append([]byte{byte(8*i + 5)}, frame...)
}

func program(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

func repeat(n int, op []byte) []byte { return bytes.Repeat(op, n) }

// accumFuzzSeeds is the seed corpus: one program per boundary the windowed
// representation must get right.
func accumFuzzSeeds() [][]byte {
	mx, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	zeroLimbs := make([]byte, 16)
	topLimbs := bytes.Repeat([]byte{0xff}, 24)
	return [][]byte{
		// Sign flips across the window top, in Add and in merges.
		program(opAdd(0, 1e-3), opAdd(0, -2e-3), opAdd(0, 2e-3), opAdd(0, -1e-3),
			opAdd(1, -0x1p63), opMerge(0, 1), opMerge(1, 0), opHop(0), opMerge(0, 0)),
		program(opAdd(0, 0x1p64), opAdd(0, -1), opAdd(0, -0x1p64), opAdd(0, 1), opAdd(0, -0x1p-60)),
		// Self-doubling walks a sum across limb boundaries: the window
		// grows by carries (positive) and by borrows (negative), and a
		// negative sum passes through -2^(64·hi), an all-zero window.
		program(opAdd(0, 1), opAdd(1, -1), opAdd(2, -3), repeat(140, program(opMerge(0, 0), opMerge(1, 1), opMerge(2, 2)))),
		// A negative window grown to the top limb, then cancelled to zero.
		program(opAdd(0, -1), opAdd(0, mx), opAdd(0, -mx), opAdd(0, 1)),
		// A rounding tie broken by a sticky bit in the window's lowest limb.
		program(opAdd(0, 1), opAdd(0, 0x1p-1+0x1p-53), opAdd(0, 0x1p-2+0x1p-54),
			opAdd(1, -1), opAdd(1, -0x1p-1-0x1p-53), opAdd(1, -0x1p-2-0x1p-54)),
		// Carries into limb 33.
		program(repeat(4, opAdd(0, mx)), opHop(0), opAdd(1, mx), repeat(62, opMerge(1, 1)), opHop(1)),
		// ±MaxFloat64 overflow and wrap mod 2^2176.
		program(opAdd(0, mx), repeat(66, opMerge(0, 0)), opAdd(1, -mx), repeat(64, opMerge(1, 1)),
			opMerge(2, 0), opMerge(2, 1), opHop(2), opAdd(2, -mx)),
		// Subnormals.
		program(opAdd(0, tiny), opAdd(0, -tiny), opAdd(0, -tiny), opAdd(0, 0x1p-1022),
			opAdd(0, -0x1.fffffffffffffp-1023), opHop(0), opMerge(1, 0), opAdd(1, tiny)),
		// Non-finite tallies through hops and merges.
		program(opAdd(0, math.NaN()), opAdd(1, math.Inf(-1)), opAdd(1, 2.5), opMerge(0, 1), opHop(0), opReset(0)),
		// A hostile neg flag with all-zero limbs, and with no limbs at all.
		program(opFrame(0, append([]byte{accFlagNeg | 2, 5}, zeroLimbs...)...), opAdd(0, -1), opMerge(0, 0),
			opFrame(1, accFlagNeg), opMerge(1, 0)),
		// Spans ending at limb 34, with and without the neg flag.
		program(opFrame(0, append([]byte{3, 31}, topLimbs...)...), opAdd(0, mx), opMerge(1, 0),
			opFrame(2, append([]byte{accFlagNeg | 3, 31}, topLimbs...)...), opMerge(2, 2), opAdd(2, -mx)),
		// A saturating relayed NaN tally meeting an honest NaN.
		program(opFrame(0, accFlagNonFinite, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0),
			opAdd(1, math.NaN()), opMerge(1, 0), opMerge(0, 1)),
	}
}
