package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so tailOf must sort
	}
	return s
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 11000, pct: 99.9, value: 10989, beyond: 11},
		{n: 10000, pct: 99.9, value: 9990, beyond: 10},
		{n: 9999, pct: 99, value: 9900, beyond: 99},
		{n: 1000, pct: 99, value: 990, beyond: 10},
		{n: 999, pct: 90, value: 900, beyond: 99},
		{n: 100, pct: 90, value: 90, beyond: 10},
		{n: 40, pct: 75, value: 30, beyond: 10},
		{n: 21, pct: 50, value: 11, beyond: 10},
	} {
		got, ok := tailOf(seq(tc.n))
		if !ok || got.Pct != tc.pct || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: tail %+v ok=%v, want p%g = %g with %d beyond", tc.n, got, ok, tc.pct, tc.value, tc.beyond)
		}
	}
	if got, ok := tailOf(seq(19)); ok || got.N != 19 {
		t.Errorf("19 samples: tail %+v ok=%v, want no percentile with ten beyond", got, ok)
	}
	if got := tailLine(seq(1000), "us"); got != "p99 990.0 us (n=1000, 10 beyond)" {
		t.Errorf("tailLine = %q", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 50}}, 80},
		{"overlapping", []interval{{10, 50}, {30, 70}}, 40},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 60}}, 20},
		{"identical", []interval{{10, 60}, {10, 60}, {10, 60}}, 50},
		{"clipped to the parent", []interval{{-50, 10}, {95, 200}}, 85},
		{"outside the parent", []interval{{-50, -10}, {100, 200}}, 100},
		{"unsorted chain", []interval{{60, 80}, {0, 30}, {20, 65}}, 20},
		{"covering", []interval{{-1, 101}}, 0},
	} {
		if got := selfTime(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestFoldLinksDeviceSpansToTheirRound(t *testing.T) {
	rounds := newRecorder(time.Time{})
	r2 := rounds.add(spRound, 0, 100, noParent, 2)
	rounds.add(spHook, 80, 100, r2, 2)
	rounds.add(spRound, 100, 200, noParent, 3)
	devA, devB := newRecorder(time.Time{}), newRecorder(time.Time{})
	a := devA.add(spTrain, 10, 50, noParent, 2)
	devA.add(spSimStep, 20, 30, a, 2)
	devB.add(spTrain, 30, 70, noParent, 2)
	devB.add(spTrain, 120, 150, noParent, 3)

	spans := merge(nil, rounds, []*recorder{devA, devB})
	var st layerStats
	st.fold(spans)
	// Round 2: 100 - union([10,70], [80,100]) = 20. Round 3: 100 - 30.
	if got := st.self[spRound]; got != 20+70 {
		t.Errorf("fed.round self time %d, want 90", got)
	}
	if got := st.self[spTrain]; got != 30+40+30 {
		t.Errorf("device.train self time %d, want 100", got)
	}
	if got := st.calls[spTrain]; got != 3 {
		t.Errorf("device.train calls %d, want 3", got)
	}
	if got := planeTimes(spans); len(got) != 2 || got[0] != 0.06 || got[1] != 0.07 {
		t.Errorf("plane times %v us, want [0.06 0.07]", got)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric name %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for n := spanName(0); n < numSpanNames; n++ {
		if !metricName.MatchString(n.String()) {
			t.Errorf("span name %q does not match %s", n, metricName)
		}
	}
}

// TestBenchmarkManifestMatches keeps BENCHMARK.json and the metrics the
// benchmark reports in step.
func TestBenchmarkManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

func TestSynthTrainerIsPure(t *testing.T) {
	global := []float64{1, -2, 3.5}
	a, b := &synthTrainer{seed: 7}, &synthTrainer{seed: 7}
	x, _ := a.TrainRound(3, global)
	x = append([]float64(nil), x...)
	_, _ = b.TrainRound(2, global)
	y, _ := b.TrainRound(3, global)
	if err := sameBits(y, x); err != nil {
		t.Fatalf("same seed, round and model gave different updates: %v", err)
	}
	z, _ := (&synthTrainer{seed: 8}).TrainRound(3, global)
	if sameBits(z, x) == nil {
		t.Fatal("different seeds gave the same update")
	}
}
