package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spTrain        spanName = iota // device.train: one fed.Client.TrainRound
	spWait                         // device.wait: update returned → next broadcast received
	spRound                        // fed.round: one committed aggregation round
	spHook                         // experiment.hook: the round hook (evaluation)
	spNewPolicy                    // experiment.new_policy: experiment.NewNeuralPolicy
	spEval                         // experiment.eval: one greedy evaluation episode
	spPolicyAction                 // experiment.policy_action: Policy.Action
	spState                        // core.state: core.StateVector
	spSelect                       // core.select: Controller.SelectAction
	spObserve                      // core.observe: Controller.Observe without an update
	spUpdate                       // core.update: Controller.Observe that runs an update
	spSimStep                      // sim.step: sim.Device.Step
	spWorkloadNext                 // workload.next: workload.Stream.Next
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spTrain:        "device.train",
	spWait:         "device.wait",
	spRound:        "fed.round",
	spHook:         "experiment.hook",
	spNewPolicy:    "experiment.new_policy",
	spEval:         "experiment.eval",
	spPolicyAction: "experiment.policy_action",
	spState:        "core.state",
	spSelect:       "core.select",
	spObserve:      "core.observe",
	spUpdate:       "core.update",
	spSimStep:      "sim.step",
	spWorkloadNext: "workload.next",
}

func (n spanName) String() string { return spanNames[n] }

// noParent marks a span with no causing span.
const noParent = -1

// span is one recorded call into a layer. Times are nanoseconds since the
// run's epoch on the monotonic clock. parent indexes the same recorder
// until merge, then the merged operation's span list. round ties a device
// span recorded on another goroutine to the fed.round span that caused it.
type span struct {
	start, end int64
	parent     int32
	round      int32
	name       spanName
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects the spans of one goroutine. Recorders are never shared
// between goroutines; merge joins them after the goroutines have finished.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name spanName, parent int32, round int) int32 {
	r.spans = append(r.spans, span{start: r.now(), parent: parent, round: int32(round), name: name})
	return int32(len(r.spans) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(i int32) { r.spans[i].end = r.now() }

// add records a span whose times were taken elsewhere.
func (r *recorder) add(name spanName, start, end int64, parent int32, round int) int32 {
	r.spans = append(r.spans, span{start: start, end: end, parent: parent, round: int32(round), name: name})
	return int32(len(r.spans) - 1)
}

// merge appends a federation's spans to dst with parents rebased onto
// dst: first the spans of rounds, the recorder that holds its fed.round
// spans, then each device recorder's. A device.train span without a
// parent is parented to the fed.round span of its round.
func merge(dst []span, rounds *recorder, devices []*recorder) []span {
	base := int32(len(dst))
	roundOf := map[int32]int32{}
	for i, s := range rounds.spans {
		if s.parent != noParent {
			s.parent += base
		}
		if s.name == spRound {
			roundOf[s.round] = base + int32(i)
		}
		dst = append(dst, s)
	}
	for _, d := range devices {
		off := int32(len(dst))
		for _, s := range d.spans {
			switch {
			case s.parent != noParent:
				s.parent += off
			case s.name == spTrain:
				if p, ok := roundOf[s.round]; ok {
					s.parent = p
				}
			}
			dst = append(dst, s)
		}
	}
	return dst
}

// spanBudget caps the spans a traced run keeps for writing out, at 32 B
// each. Operations traced after the budget is spent still count in the
// per-layer metrics; only their spans are dropped.
const spanBudget = 1_500_000

// traceLog keeps operations' merged spans in memory until the run ends,
// then writes them out.
type traceLog struct {
	runs    []int
	spans   [][]span
	dropped int // operations whose spans did not fit the budget
}

// keep stores one operation's spans, if the budget has room for them.
func (l *traceLog) keep(run int, spans []span) {
	if l.count()+len(spans) > spanBudget && len(l.spans) > 0 {
		l.dropped++
		return
	}
	l.runs = append(l.runs, run)
	l.spans = append(l.spans, spans)
}

func (l *traceLog) count() int {
	n := 0
	for _, s := range l.spans {
		n += len(s)
	}
	return n
}

// write stores the spans as gzipped CSV, one span per line: run id, span
// index within the run, parent index (-1 for none), name, round, start and
// end in nanoseconds since the run's epoch.
func (l *traceLog) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace: close: %w", cerr)
		}
	}()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(zw)
	if _, err := fmt.Fprintln(w, "run,span,parent,name,round,start_ns,end_ns"); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for k, spans := range l.spans {
		for i, s := range spans {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", l.runs[k], i, s.parent, s.name, s.round, s.start, s.end); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: gzip: %w", err)
	}
	return nil
}

// layerStats folds merged spans into per-name totals and durations.
type layerStats struct {
	calls [numSpanNames]int
	total [numSpanNames]int64     // summed duration, ns
	self  [numSpanNames]int64     // summed self time, ns
	durs  [numSpanNames][]float64 // per-span durations, ns, for names in keepDurs
}

// keepDurs lists the span names whose individual durations are kept for
// percentiles.
var keepDurs = [numSpanNames]bool{spTrain: true, spWait: true, spSelect: true, spUpdate: true}

// fold adds one operation's merged spans to the stats, computing each
// span's self time as its duration minus the union of its children.
func (st *layerStats) fold(spans []span) {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent != noParent {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	for i, s := range spans {
		st.calls[s.name]++
		st.total[s.name] += s.dur()
		st.self[s.name] += selfTime(s.start, s.end, children[i])
		if keepDurs[s.name] {
			st.durs[s.name] = append(st.durs[s.name], float64(s.dur()))
		}
	}
}
