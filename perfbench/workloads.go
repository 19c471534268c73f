package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fedpower/internal/experiment"
)

// fig3Op is one Fig. 3 run at one seed with its costs.
type fig3Op struct {
	res   *experiment.Fig3Result
	spans []span        // traced runs only
	setup time.Duration // building and validating the options
	wall  time.Duration
	cpu   time.Duration
	alloc uint64 // heap bytes allocated
	gcs   uint32
}

// runFig3Once runs one seed, through experiment.RunFig3 or, with rt set,
// through the traced composition. Like every operation of the benchmark,
// it starts from a collected heap, so no operation pays for the garbage of
// the one before it.
func runFig3Once(seed int64, rt *runTrace) (fig3Op, error) {
	var op fig3Op
	runtime.GC()
	t0 := time.Now()
	o, err := fig3Options(seed)
	op.setup = time.Since(t0)
	if err != nil {
		return op, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t1 := time.Now()
	if rt == nil {
		op.res, err = experiment.RunFig3(o)
	} else {
		op.res, op.spans, err = tracedFig3(o, rt)
	}
	op.wall = time.Since(t1)
	op.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	op.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	op.gcs = ms1.NumGC - ms0.NumGC
	if err != nil {
		return op, err
	}
	return op, fig3Check(op.res)
}

// fig3Run runs RunFig3 at the paper's DefaultOptions, one seed after
// another, until the time is up. An operation is one seed.
func fig3Run(c config) *report {
	if c.trace {
		return fig3Traced(c)
	}
	return fig3Plain(c)
}

func fig3Plain(c config) *report {
	rep := newReport()
	var setups, walls []float64
	var wallSum, cpuSum time.Duration
	var allocSum uint64
	var reward float64
	stepsPerSeed := fig3Steps(experiment.DefaultOptions())
	begin := time.Now()
	for rep.attempted == 0 || time.Since(begin) < c.seconds {
		seed := c.rng.Int63()
		if rep.attempted == 0 {
			rep.printf("process start to first RunFig3: %.6f s", time.Since(c.started).Seconds())
		}
		rep.attempted++
		op, err := runFig3Once(seed, nil)
		if err != nil {
			rep.failed++
			rep.fail(fmt.Errorf("fig3 seed %d: %w", seed, err))
			continue
		}
		setups = append(setups, op.setup.Seconds())
		walls = append(walls, toUS(op.wall))
		wallSum += op.wall
		cpuSum += op.cpu
		allocSum += op.alloc
		reward += fedReward(op.res)
	}
	ok := rep.attempted - rep.failed
	if ok == 0 {
		return rep
	}
	steps := ok * stepsPerSeed
	rep.set("setup_s", median(setups))
	rep.set("op_p50_us", median(walls))
	rep.set("cpu_us_per_op", toUS(cpuSum)/float64(ok))
	rep.printf("setup_s %.9f s (median of %d)", median(setups), len(setups))
	rep.printf("train_steps_per_s %.1f steps/s (%d steps in %.3f s of RunFig3)", float64(steps)/wallSum.Seconds(), steps, wallSum.Seconds())
	rep.printf("fed_reward %.6f (mean over %d seeds of the mean federated reward of the three scenarios)", reward/float64(ok), ok)
	rep.printf("op_p50_us %.1f us per seed (n=%d), %s", median(walls), len(walls), spreadLine(walls, "us"))
	rep.printf("alloc_kb_per_op %.1f KiB per seed", float64(allocSum)/1024/float64(ok))
	rep.printf("cpu_us_per_op %.1f us per seed (%.2f CPUs busy)", toUS(cpuSum)/float64(ok), cpuSum.Seconds()/wallSum.Seconds())
	return rep
}

// fig3Traced runs pairs of seeds, one untraced RunFig3 and one traced
// composition of the same seed, alternating which goes first, and
// requires the two to agree bit for bit.
func fig3Traced(c config) *report {
	rep := newReport()
	rt := &runTrace{epoch: time.Now()}
	var st layerStats
	var plainWall, tracedWall, tracedCPU time.Duration
	var gcs uint32
	traced := 0
	begin := time.Now()
	for k := 0; k == 0 || time.Since(begin) < c.seconds; k++ {
		seed := c.rng.Int63()
		rep.attempted++
		var plain, tr fig3Op
		var err error
		if k%2 == 0 {
			if plain, err = runFig3Once(seed, nil); err == nil {
				tr, err = runFig3Once(seed, rt)
			}
		} else {
			if tr, err = runFig3Once(seed, rt); err == nil {
				plain, err = runFig3Once(seed, nil)
			}
		}
		if err == nil {
			err = sameFig3(plain.res, tr.res)
		}
		if err != nil {
			rep.failed++
			rep.fail(fmt.Errorf("fig3 seed %d traced vs untraced: %w", seed, err))
			continue
		}
		traced++
		plainWall += plain.wall
		tracedWall += tr.wall
		tracedCPU += tr.cpu
		gcs += tr.gcs
		st.fold(tr.spans)
		rep.spans.keep(k+1, tr.spans)
	}
	if traced == 0 {
		return rep
	}
	per := func(v float64) float64 { return v / float64(traced) }
	ms := func(ns int64) float64 { return per(float64(ns) / 1e6) }
	rep.set("core.update.calls", per(float64(st.calls[spUpdate])))
	rep.set("core.update.ms", ms(st.total[spUpdate]))
	upd := sortedCopy(st.durs[spUpdate])
	rep.set("core.update.p50_us", quantile(upd, 500)/1e3)
	rep.set("core.update.p99_us", quantile(upd, 990)/1e3)
	rep.set("core.select.calls", per(float64(st.calls[spSelect])))
	rep.set("core.select.ms", ms(st.total[spSelect]))
	sel := sortedCopy(st.durs[spSelect])
	rep.set("core.select.p50_ns", quantile(sel, 500))
	rep.set("core.select.p99_ns", quantile(sel, 990))
	rep.set("core.state.ms", ms(st.total[spState]))
	rep.set("core.observe.ms", ms(st.total[spObserve]))
	rep.set("sim.step.calls", per(float64(st.calls[spSimStep])))
	rep.set("sim.step.ms", ms(st.total[spSimStep]))
	rep.set("workload.next.calls", per(float64(st.calls[spWorkloadNext])))
	rep.set("experiment.policy_action.ms", ms(st.total[spPolicyAction]))
	rep.set("experiment.eval.steps", per(float64(st.calls[spPolicyAction])))
	rep.set("experiment.eval.ms", ms(st.self[spEval]))
	rep.set("experiment.new_policy.calls", per(float64(st.calls[spNewPolicy])))
	rep.set("experiment.new_policy.ms", ms(st.total[spNewPolicy]))
	rep.set("fed.aggregate.ms", ms(st.self[spRound]))
	rep.set("device.train.ms", ms(st.total[spTrain]))
	rep.set("device.train.us", median(st.durs[spTrain])/1e3)
	rep.set("runtime.gc_cycles", per(float64(gcs)))
	rep.set("process.cpu_s", tracedCPU.Seconds())
	rep.set("process.wall_s", tracedWall.Seconds())
	overhead := (tracedWall.Seconds()/plainWall.Seconds() - 1) * 100
	rep.set("trace.overhead_pct", overhead)

	rep.printf("per seed over %d traced seeds (per-layer times are span totals per seed):", traced)
	rep.printf("core.update %.0f calls, %.1f ms, p50 %.1f us, %s", per(float64(st.calls[spUpdate])), ms(st.total[spUpdate]), quantile(upd, 500)/1e3, tailLine(scaled(upd, 1e-3), "us"))
	rep.printf("core.select %.0f calls, %.1f ms, p50 %.0f ns, %s", per(float64(st.calls[spSelect])), ms(st.total[spSelect]), quantile(sel, 500), tailLine(sel, "ns"))
	rep.printf("trace.overhead_pct %.1f %% (traced %.3f s vs untraced %.3f s over the same seeds)", overhead, tracedWall.Seconds(), plainWall.Seconds())
	return rep
}

func scaled(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// sessionFunc runs one federation session; rt is nil for an untraced one.
type sessionFunc func(rng *rand.Rand, rt *runTrace) session

// federationTotals sums sessions.
type federationTotals struct {
	sessions  int
	setups    []float64
	rounds    []float64 // steady-state round latencies, us
	timed     time.Duration
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	gcs       uint32
	committed int
	steady    int // steady-state rounds
	bytesSent int64
	bytesRecv int64
	drops     int64
	rejoins   int64
}

func (t *federationTotals) add(rep *report, s session) {
	rep.attempted += s.attempted
	rep.failed += s.failed
	if s.err != nil {
		rep.fail(s.err)
		return
	}
	t.sessions++
	t.setups = append(t.setups, s.setup.Seconds())
	t.rounds = append(t.rounds, durationsUS(s.rounds)...)
	t.timed += s.timed
	t.cpu += s.cpu
	t.mallocs += s.mallocs
	t.allocated += s.allocated
	t.gcs += s.gcs
	t.committed += s.committed
	t.steady += len(s.rounds)
	t.bytesSent += s.bytesSent
	t.bytesRecv += s.bytesRecv
	t.drops += s.drops
	t.rejoins += s.rejoins
}

// federationRun runs federation sessions until the time is up. An
// operation is one committed steady-state round.
func federationRun(c config, run sessionFunc) *report {
	if c.trace {
		return federationTraced(c, run)
	}
	return federationPlain(c, run)
}

func federationPlain(c config, run sessionFunc) *report {
	rep := newReport()
	var t federationTotals
	begin := time.Now()
	for rep.attempted == 0 || time.Since(begin) < c.seconds {
		t.add(rep, run(c.rng, nil))
	}
	if t.steady == 0 {
		return rep
	}
	p50 := median(t.rounds)
	rep.set("setup_s", median(t.setups))
	rep.set("op_p50_us", p50)
	rep.set("cpu_us_per_op", toUS(t.cpu)/float64(t.steady))
	rep.printf("setup_s %.6f s (median of %d sessions)", median(t.setups), len(t.setups))
	rep.printf("round_p50_us %.1f us (n=%d), %s", p50, len(t.rounds), spreadLine(t.rounds, "us"))
	rep.printf("rounds_per_s %.1f", float64(t.steady)/t.timed.Seconds())
	if bytes := t.bytesSent + t.bytesRecv; bytes > 0 {
		rep.printf("bytes_per_round %.3f B", float64(bytes)/float64(t.committed))
	}
	rep.printf("alloc_kb_per_op %.4f KiB per round (%.3f allocs per round)", float64(t.allocated)/1024/float64(t.steady), float64(t.mallocs)/float64(t.steady))
	rep.printf("cpu_us_per_op %.1f us per round (%.2f CPUs busy)", toUS(t.cpu)/float64(t.steady), t.cpu.Seconds()/t.timed.Seconds())
	return rep
}

// federationTraced alternates untraced and traced sessions until the time
// is up and reports per-layer metrics from the traced ones.
func federationTraced(c config, run sessionFunc) *report {
	rep := newReport()
	rt := &runTrace{epoch: time.Now()}
	var plain, traced federationTotals
	var st layerStats
	var planeUS []float64
	begin := time.Now()
	for k := 0; k < 2 || time.Since(begin) < c.seconds; k++ {
		if k%2 == 0 {
			plain.add(rep, run(c.rng, nil))
			continue
		}
		s := run(c.rng, rt)
		traced.add(rep, s)
		if s.err != nil {
			continue
		}
		st.fold(s.spans)
		planeUS = append(planeUS, planeTimes(s.spans)...)
		rep.spans.keep(k+1, s.spans)
	}
	if traced.steady == 0 || plain.steady == 0 {
		return rep
	}
	n := float64(traced.steady)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	rounds := sortedCopy(traced.rounds)
	wait := sortedCopy(st.durs[spWait])
	rep.set("fed.aggregate.ms", ms(st.self[spRound]))
	rep.set("fed.plane.us", median(planeUS))
	rep.set("fed.round.p90_us", quantile(rounds, 900))
	rep.set("fed.round.p99_us", quantile(rounds, 990))
	rep.set("fed.allocs_per_round", float64(traced.mallocs)/n)
	rep.set("device.train.us", median(st.durs[spTrain])/1e3)
	rep.set("device.train.ms", ms(st.total[spTrain]))
	rep.set("device.wait.p50_us", quantile(wait, 500)/1e3)
	rep.set("device.wait.p99_us", quantile(wait, 990)/1e3)
	rep.set("runtime.gc_cycles", float64(traced.gcs)/n)
	rep.set("process.cpu_s", traced.cpu.Seconds())
	rep.set("process.wall_s", traced.timed.Seconds())
	rep.set("fed.bytes_sent", float64(traced.bytesSent)/float64(traced.committed))
	rep.set("fed.bytes_received", float64(traced.bytesRecv)/float64(traced.committed))
	rep.set("fed.drops", float64(traced.drops))
	rep.set("fed.rejoins", float64(traced.rejoins))
	perRound := func(t federationTotals) float64 { return t.timed.Seconds() / float64(t.steady) }
	overhead := (perRound(traced)/perRound(plain) - 1) * 100
	rep.set("trace.overhead_pct", overhead)

	rep.printf("per round over %d traced rounds in %d sessions:", traced.steady, traced.sessions)
	rep.printf("fed.round %s", tailLine(traced.rounds, "us"))
	rep.printf("device.wait %s", tailLine(scaled(st.durs[spWait], 1e-3), "us"))
	rep.printf("trace.overhead_pct %.1f %% (traced %.1f us/round vs untraced %.1f us/round)", overhead, perRound(traced)*1e6, perRound(plain)*1e6)
	return rep
}

// planeTimes returns, for every traced round, its duration minus its
// slowest device.train: the time the aggregation plane adds to a round.
func planeTimes(spans []span) []float64 {
	slowest := make(map[int32]int64)
	for _, s := range spans {
		if s.name == spTrain && s.parent != noParent {
			slowest[s.parent] = max(slowest[s.parent], s.dur())
		}
	}
	var out []float64
	for i, s := range spans {
		if s.name == spRound {
			out = append(out, float64(s.dur()-slowest[int32(i)])/1e3)
		}
	}
	return out
}
