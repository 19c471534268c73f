// Command perfbench is fedpower's end-to-end benchmark. It drives one
// workload through the public functions of internal/experiment, fed, core,
// sim and workload for a fixed time, checks the outputs, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// span code on the path. With -trace 1 the run alternates untraced and
// traced operations, records spans around every call into a layer, and
// reports the per-layer metrics and the tracing overhead. Spans are kept
// in memory and written to .bench_build/trace/ when the run ends.
//
// Usage, from the repository root:
//
//	go run ./perfbench -workload fig3|tcp_round|fleet_tree -seed N -seconds S -trace 0|1
//
// The exit status is non-zero when any correctness check fails. See
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// every one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"cpu_us_per_op", "us"},
}

// perLayer are the metrics of a traced run. A workload that does not
// reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.update.calls", "count"},
	{"core.update.ms", "ms"},
	{"core.update.p50_us", "us"},
	{"core.update.p99_us", "us"},
	{"core.select.calls", "count"},
	{"core.select.ms", "ms"},
	{"core.select.p50_ns", "ns"},
	{"core.select.p99_ns", "ns"},
	{"core.state.ms", "ms"},
	{"core.observe.ms", "ms"},
	{"sim.step.calls", "count"},
	{"sim.step.ms", "ms"},
	{"workload.next.calls", "count"},
	{"experiment.policy_action.ms", "ms"},
	{"experiment.eval.steps", "count"},
	{"experiment.eval.ms", "ms"},
	{"experiment.new_policy.calls", "count"},
	{"experiment.new_policy.ms", "ms"},
	{"fed.aggregate.ms", "ms"},
	{"fed.plane.us", "us"},
	{"fed.round.p90_us", "us"},
	{"fed.round.p99_us", "us"},
	{"fed.bytes_sent", "B"},
	{"fed.bytes_received", "B"},
	{"fed.drops", "count"},
	{"fed.rejoins", "count"},
	{"fed.allocs_per_round", "count"},
	{"device.train.us", "us"},
	{"device.train.ms", "ms"},
	{"device.wait.p50_us", "us"},
	{"device.wait.p99_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"process.cpu_s", "s"},
	{"process.wall_s", "s"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	seconds time.Duration
	trace   bool
	rng     *rand.Rand // every input is drawn from it
	started time.Time  // process start, as seen by main
}

// report is what a workload run produced.
type report struct {
	attempted, failed int
	errs              []error
	values            map[string]float64
	lines             []string // human-readable results, printed before the JSON line
	spans             traceLog
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) fail(err error) { r.errs = append(r.errs, err) }

// workloads maps a workload name to its run.
var workloads = map[string]func(config) *report{
	"fig3":       fig3Run,
	"tcp_round":  func(c config) *report { return federationRun(c, tcpSession) },
	"fleet_tree": func(c config) *report { return federationRun(c, treeSession) },
}

func main() {
	started := time.Now()
	name := flag.String("workload", "", "workload: fig3, tcp_round or fleet_tree")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments; want -workload fig3|tcp_round|fleet_tree -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	c := config{
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		rng:     rand.New(rand.NewSource(*seed)),
		started: started,
	}
	fmt.Printf("# env workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())

	rep := run(c)
	defs := endToEnd
	if c.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.csv.gz", *name, *seed))
		if err := rep.spans.write(path); err != nil {
			rep.fail(err)
		} else {
			rep.printf("spans: %d of %d traced operations written to %s", rep.spans.count(), len(rep.spans.spans)+rep.spans.dropped, path)
		}
	}
	for _, line := range rep.lines {
		fmt.Println("# " + line)
	}
	for _, err := range rep.errs {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("# failed_frac %g (%d failed of %d attempted)\n", frac, rep.failed, rep.attempted)

	correct := len(rep.errs) == 0 && rep.failed == 0 && rep.attempted > 0
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !c.trace {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: metric %s not measured\n", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// processCPU is the CPU time the process has used, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail; a failure is a bug.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTrace hands out recorders that share one epoch.
type runTrace struct{ epoch time.Time }

func (rt *runTrace) recorder() *recorder { return newRecorder(rt.epoch) }

func toUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = toUS(d)
	}
	return out
}

// spreadLine renders the quartiles and the tail of samples.
func spreadLine(samples []float64, unit string) string {
	s := sortedCopy(samples)
	return fmt.Sprintf("quartiles %.1f/%.1f %s, %s", quantile(s, 250), quantile(s, 750), unit, tailLine(s, unit))
}

// tailLine renders a tail percentile with its sample counts.
func tailLine(samples []float64, unit string) string {
	t, ok := tailOf(samples)
	if !ok {
		return fmt.Sprintf("tail n/a (n=%d)", t.N)
	}
	return fmt.Sprintf("p%g %.1f %s (n=%d, %d beyond)", t.Pct, t.Value, unit, t.N, t.Beyond)
}
