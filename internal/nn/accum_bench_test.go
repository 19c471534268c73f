package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Micro-benchmarks of the exact accumulator's operations on parameter-like
// sums (magnitudes around 0.1, a 2–3 limb window). "positive" sums keep one
// sign; "flipping" sums change sign on every operation, the case where a
// full-width two's complement accumulator ripples through every
// sign-extension limb. They explain the aggregation layer's cost; they are
// not gated.

// accumBenchValues returns n parameter-like summands: positive ones, or a
// sequence whose running sum alternates in sign with every summand.
func accumBenchValues(n int, flipping bool) []float64 {
	rng := rand.New(rand.NewSource(11))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = 0.1 + 0.01*rng.Float64()
	}
	if flipping {
		// 0.05, then ±(0.1+e) pairs: the running sum alternates exactly
		// between 0.05 and 0.05-(0.1+e).
		vs[0] = 0.05
		for i := 1; i+1 < n; i += 2 {
			vs[i], vs[i+1] = -vs[i], vs[i]
		}
	}
	return vs
}

var accumSink float64

func BenchmarkAccumAdd(b *testing.B) {
	for _, c := range []struct {
		name     string
		flipping bool
	}{{"positive", false}, {"flipping", true}} {
		b.Run(c.name, func(b *testing.B) {
			vs := accumBenchValues(64, c.flipping)
			var a Accum
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&63 == 0 && c.flipping {
					a.Reset() // restart the exact alternation
				}
				a.Add(vs[i&63])
			}
			accumSink = a.Round()
		})
	}
}

func BenchmarkAccumAddAccum(b *testing.B) {
	vs := accumBenchValues(8, false)
	var p, twice, negTwice Accum
	for _, v := range vs {
		p.Add(v)
		twice.Add(2 * v)
		negTwice.Add(-2 * v)
	}
	b.Run("positive", func(b *testing.B) {
		var a Accum
		for i := 0; i < b.N; i++ {
			a.AddAccum(&p)
		}
		accumSink = a.Round()
	})
	b.Run("flipping", func(b *testing.B) {
		a := p
		for i := 0; i < b.N; i++ {
			// p → -p → p: every merge flips the sign.
			if i&1 == 0 {
				a.AddAccum(&negTwice)
			} else {
				a.AddAccum(&twice)
			}
		}
		accumSink = a.Round()
	})
}

// accumBenchSums returns a positive and a negative parameter-like sum.
func accumBenchSums() (pos, neg Accum) {
	for _, v := range accumBenchValues(8, false) {
		pos.Add(v)
		neg.Add(-v)
	}
	return pos, neg
}

func BenchmarkAccumRound(b *testing.B) {
	pos, neg := accumBenchSums()
	for _, c := range []struct {
		name string
		a    *Accum
	}{{"positive", &pos}, {"negative", &neg}} {
		b.Run(c.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += c.a.Round()
			}
			accumSink = s
		})
	}
}

func BenchmarkAccumAppendWire(b *testing.B) {
	pos, neg := accumBenchSums()
	for _, c := range []struct {
		name string
		a    *Accum
	}{{"positive", &pos}, {"negative", &neg}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, MaxAccumWire)
			for i := 0; i < b.N; i++ {
				buf = c.a.AppendWire(buf[:0])
			}
			accumSink = math.Float64frombits(uint64(len(buf)))
		})
	}
}
