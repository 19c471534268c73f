package nn

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// accumWireGolden holds the relay wire encodings of goldenAccums, recorded
// with the original full-width (34-limb) accumulator, one sum per line:
// the 16-hex-digit Round() bits, a space, then the AppendWire bytes in hex.
// The wire format is shared by every aggregator in a tree, so an encoder
// that reproduces these bytes and a decoder that reads them back to the
// same Round() bits interoperate with aggregators built from older code.
const accumWireGolden = "testdata/accum_wire.golden"

// goldenAccums builds the fixed, seeded set of sums behind the wire golden:
// empty, positive, negative, exactly cancelled, non-finite, subnormal, sign
// flipping, top-limb and wrapped sums, then seeded random ones. Only Add and
// AddAccum build them, so the set means the same in every representation.
func goldenAccums() []Accum {
	var out []Accum
	sum := func(vs ...float64) Accum {
		var a Accum
		for _, v := range vs {
			a.Add(v)
		}
		return a
	}
	mx := math.MaxFloat64
	tiny := math.SmallestNonzeroFloat64
	out = append(out,
		sum(),
		sum(1.5),
		sum(-1.5),
		sum(0.25, -0.125, 3e-3),
		sum(1, -1),
		sum(mx, -mx),
		sum(0x1p-1022, -0x1p-1022, 5, -5),
		sum(1e-3, -2e-3),         // flips negative
		sum(-1e-3, 2e-3),         // flips positive
		sum(-1, 0x1p64, -0x1p64), // negative across limb boundaries
		sum(math.NaN()),
		sum(1, math.NaN(), -7),
		sum(math.Inf(1)),
		sum(math.Inf(-1), 2),
		sum(math.Inf(1), math.Inf(-1)),
		sum(-3, math.NaN(), math.Inf(1)),
		sum(tiny),
		sum(-tiny),
		sum(tiny, tiny, -tiny*3),
		sum(0x1.fffffffffffffp-1023, tiny),
		sum(mx, mx, mx, mx),     // carries into limb 33
		sum(-mx, -mx, -mx, -mx), // negative top-limb sum
		sum(mx, mx, -mx, 1e-300),
	)
	// Self-merges double a sum: 2^k·MaxFloat64 walks up through limb 33 and,
	// past 2^64 summands' worth, wraps mod 2^2176.
	for _, k := range []int{8, 62, 63, 64, 65} {
		for _, v := range []float64{mx, -mx} {
			a := sum(v)
			for i := 0; i < k; i++ {
				a.AddAccum(&a)
			}
			out = append(out, a)
		}
	}
	rng := rand.New(rand.NewSource(20260806))
	for i := 0; i < 40; i++ {
		var a Accum
		groups := 1 + rng.Intn(3)
		for g := 0; g < groups; g++ {
			var part Accum
			n := 1 + rng.Intn(12)
			for j := 0; j < n; j++ {
				switch rng.Intn(3) {
				case 0:
					part.Add(randFinite(rng))
				default: // parameter-like magnitudes
					part.Add(rng.NormFloat64() * math.Ldexp(1, -rng.Intn(12)))
				}
			}
			a.AddAccum(&part)
		}
		out = append(out, a)
	}
	return out
}

// formatGoldenLine renders one golden line for a.
func formatGoldenLine(a *Accum) string {
	return fmt.Sprintf("%016x %s", math.Float64bits(a.Round()), hex.EncodeToString(a.AppendWire(nil)))
}

func TestAccumWireGolden(t *testing.T) {
	f, err := os.Open(accumWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sums := goldenAccums()
	if len(lines) != len(sums) {
		t.Fatalf("golden has %d sums, goldenAccums builds %d", len(lines), len(sums))
	}
	for i := range sums {
		if got := formatGoldenLine(&sums[i]); got != lines[i] {
			t.Errorf("sum %d encodes as\n%s\nwant\n%s", i, got, lines[i])
			continue
		}
		fields := strings.Fields(lines[i])
		wantBits, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := hex.DecodeString(fields[1])
		if err != nil {
			t.Fatal(err)
		}
		var b Accum
		b.Add(-42) // must be overwritten
		if n, err := DecodeAccumInto(&b, enc); err != nil || n != len(enc) {
			t.Fatalf("sum %d: decode consumed %d of %d bytes (%v)", i, n, len(enc), err)
		}
		if got := math.Float64bits(b.Round()); got != wantBits {
			t.Errorf("sum %d: decoded golden rounds to %016x, want %016x", i, got, wantBits)
		}
	}
}
