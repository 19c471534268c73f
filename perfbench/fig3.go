package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"fedpower/internal/core"
	"fedpower/internal/experiment"
	"fedpower/internal/fed"
	"fedpower/internal/par"
	"fedpower/internal/sim"
	"fedpower/internal/stats"
	"fedpower/internal/workload"
)

// fig3Options is the paper's Fig. 3 configuration at one seed.
func fig3Options(seed int64) (experiment.Options, error) {
	o := experiment.DefaultOptions()
	o.Seed = seed
	if err := o.Validate(); err != nil {
		return o, err
	}
	for _, sc := range experiment.TableII() {
		if err := sc.Validate(); err != nil {
			return o, err
		}
	}
	return o, nil
}

// fig3Steps is the number of training control steps one RunFig3 takes:
// every scenario trains a federated unit and one local-only unit per
// device, each device stepping R·T times.
func fig3Steps(o experiment.Options) int {
	steps := 0
	for _, sc := range experiment.TableII() {
		steps += 2 * len(sc.Devices) * o.Rounds * o.StepsPerRound
	}
	return steps
}

// fig3Check reports the first non-finite reward in a Fig. 3 result.
func fig3Check(res *experiment.Fig3Result) error {
	for _, sc := range res.Scenarios {
		traces := append([][]experiment.RoundEval{sc.Fed}, sc.Local...)
		for _, tr := range traces {
			for _, e := range tr {
				if math.IsNaN(e.Reward) || math.IsInf(e.Reward, 0) {
					return fmt.Errorf("scenario %s round %d: non-finite reward %v", sc.Scenario.Name, e.Round, e.Reward)
				}
			}
		}
	}
	return nil
}

// fedReward is the mean over scenarios of the federated evaluation reward,
// the level of the Fig. 3 F-curves.
func fedReward(res *experiment.Fig3Result) float64 {
	var agg stats.Running
	for _, sc := range res.Scenarios {
		agg.Add(sc.AvgFedReward())
	}
	return agg.Mean()
}

// sameEvals reports the first difference between two evaluation traces,
// comparing every float by its bits.
func sameEvals(a, b []experiment.RoundEval) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rounds vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Round != y.Round || x.App != y.App ||
			math.Float64bits(x.Reward) != math.Float64bits(y.Reward) ||
			math.Float64bits(x.MeanNormFreq) != math.Float64bits(y.MeanNormFreq) ||
			math.Float64bits(x.StdNormFreq) != math.Float64bits(y.StdNormFreq) {
			return fmt.Errorf("round %d differs: %+v vs %+v", x.Round, x, y)
		}
	}
	return nil
}

// sameFig3 compares the per-round federated and local rewards of two
// Fig. 3 results bit for bit.
func sameFig3(a, b *experiment.Fig3Result) error {
	if len(a.Scenarios) != len(b.Scenarios) {
		return fmt.Errorf("%d scenarios vs %d", len(a.Scenarios), len(b.Scenarios))
	}
	for i, sa := range a.Scenarios {
		sb := b.Scenarios[i]
		if err := sameEvals(sa.Fed, sb.Fed); err != nil {
			return fmt.Errorf("scenario %s federated: %w", sa.Scenario.Name, err)
		}
		if len(sa.Local) != len(sb.Local) {
			return fmt.Errorf("scenario %s: %d local units vs %d", sa.Scenario.Name, len(sa.Local), len(sb.Local))
		}
		for d := range sa.Local {
			if err := sameEvals(sa.Local[d], sb.Local[d]); err != nil {
				return fmt.Errorf("scenario %s local device %d: %w", sa.Scenario.Name, d, err)
			}
		}
	}
	return nil
}

// The traced Fig. 3 run below composes experiment.RunScenario from public
// calls so that spans can be recorded around every call into a layer. It
// must reproduce RunFig3 bit for bit, so it derives every random stream
// exactly as the experiment package does: the same SplitMix64 seed
// derivation and the same stream identifiers.
const (
	idFedDevice   = 100
	idLocalDevice = 200
	idFedInit     = 900
	idLocalInit   = 910
	idEval        = 1000
)

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func subseed(root int64, ids ...int64) int64 {
	const golden = 0x9e3779b97f4a7c15
	z := mix64(uint64(root) + golden)
	for _, id := range ids {
		z = mix64(z + uint64(id) + golden)
	}
	return int64(z)
}

func newRNG(root int64, ids ...int64) *rand.Rand {
	return rand.New(rand.NewSource(subseed(root, ids...)))
}

// tracedDevice is experiment.NeuralDevice's training loop with a span
// around every call into core, sim and workload.
type tracedDevice struct {
	dev    *sim.Device
	ctrl   *core.Controller
	stream *workload.Stream
	o      experiment.Options
	rec    *recorder

	lastObs sim.Observation
	state   []float64
	started bool
}

func newTracedDevice(o experiment.Options, id int64, apps []workload.Spec, rec *recorder) *tracedDevice {
	return &tracedDevice{
		dev:    sim.NewDevice(o.Table, o.Power, newRNG(o.Seed, id, 1)),
		ctrl:   core.NewController(o.Core, newRNG(o.Seed, id, 2)),
		stream: workload.NewStream(newRNG(o.Seed, id, 3), append([]workload.Spec(nil), apps...)),
		o:      o,
		rec:    rec,
	}
}

func (d *tracedDevice) step(parent int32, round int) sim.Observation {
	i := d.rec.begin(spSimStep, parent, round)
	obs := d.dev.Step(d.o.IntervalS)
	d.rec.end(i)
	return obs
}

func (d *tracedDevice) load(parent int32, round int) {
	i := d.rec.begin(spWorkloadNext, parent, round)
	app := d.stream.Next()
	d.rec.end(i)
	d.dev.Load(app)
}

func (d *tracedDevice) TrainRound(round int, global []float64) ([]float64, error) {
	rec := d.rec
	top := rec.begin(spTrain, noParent, round)
	d.ctrl.SetModelParams(global)
	if !d.started {
		// NeuralDevice's bootstrap: first application, middle V/f level,
		// one observation.
		d.load(top, round)
		d.dev.SetLevel(d.o.Table.Len() / 2)
		d.lastObs = d.step(top, round)
		d.started = true
	}
	for t := 0; t < d.o.StepsPerRound; t++ {
		if d.dev.Done() {
			d.load(top, round)
		}
		i := rec.begin(spState, top, round)
		d.state = core.StateVector(d.lastObs, d.state)
		rec.end(i)

		i = rec.begin(spSelect, top, round)
		action := d.ctrl.SelectAction(d.state)
		rec.end(i)

		d.dev.SetLevel(action)
		obs := d.step(top, round)
		r := d.ctrl.P.Reward.Reward(obs.NormFreq, obs.PowerW)

		name := spObserve
		if (d.ctrl.Step()+1)%d.ctrl.P.OptimInterval == 0 {
			name = spUpdate
		}
		i = rec.begin(name, top, round)
		d.ctrl.Observe(d.state, action, r)
		rec.end(i)
		d.lastObs = obs
	}
	params := d.ctrl.ModelParams()
	rec.end(top)
	return params, nil
}

// tracedUnit is one federation of the traced run (the federated unit or a
// local-only unit): the recorder of its calling goroutine, which holds the
// rounds, hooks and evaluations, and one recorder per device.
type tracedUnit struct {
	o       experiment.Options
	rec     *recorder
	devices []*recorder
	round   int32 // the open fed.round span
	evals   []experiment.RoundEval
}

// hook is the traced round hook: a greedy evaluation of the new global
// model, as RunScenario's hook performs it. It closes the round's span and
// opens the next one.
func (u *tracedUnit) hook(round int, g []float64, rounds int, ids ...int64) {
	rec := u.rec
	h := rec.begin(spHook, u.round, round)
	apps := experiment.EvalApps()
	spec := apps[(round-1)%len(apps)]

	i := rec.begin(spNewPolicy, h, round)
	pol := experiment.NewNeuralPolicy(u.o.Core, g)
	rec.end(i)

	e := u.evaluate(pol, spec, h, round, append(ids, int64(round))...)
	u.evals = append(u.evals, e)
	rec.end(h)
	rec.end(u.round)
	if round < rounds {
		u.round = rec.begin(spRound, noParent, round+1)
	}
}

// evaluate is the experiment package's greedy evaluation episode.
func (u *tracedUnit) evaluate(pol experiment.Policy, spec workload.Spec, parent int32, round int, ids ...int64) experiment.RoundEval {
	o, rec := u.o, u.rec
	ev := rec.begin(spEval, parent, round)
	dev := sim.NewDevice(o.Table, o.Power, newRNG(o.Seed, ids...))
	dev.Load(workload.NewApp(spec))
	dev.SetLevel(o.Table.Len() / 2)
	i := rec.begin(spSimStep, ev, round)
	obs := dev.Step(o.IntervalS)
	rec.end(i)

	var reward, freq stats.Running
	for steps := 0; steps < o.EvalSteps && !dev.Done(); steps++ {
		i = rec.begin(spPolicyAction, ev, round)
		action := pol.Action(obs)
		rec.end(i)
		dev.SetLevel(action)
		i = rec.begin(spSimStep, ev, round)
		obs = dev.Step(o.IntervalS)
		rec.end(i)
		reward.Add(o.Core.Reward.Reward(obs.NormFreq, obs.PowerW))
		freq.Add(obs.NormFreq)
	}
	rec.end(ev)
	return experiment.RoundEval{
		Round:        round,
		App:          spec.Name,
		Reward:       reward.Mean(),
		MeanNormFreq: freq.Mean(),
		StdNormFreq:  freq.Std(),
	}
}

// tracedScenario is experiment.RunScenario with spans. units[0] is the
// federated unit, units[d+1] device d's local-only unit.
func tracedScenario(o experiment.Options, scIndex int, sc experiment.Scenario, units []*tracedUnit) (*experiment.ScenarioResult, error) {
	width := o.Parallelism
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	specs := make([][]workload.Spec, len(sc.Devices))
	for i, names := range sc.Devices {
		s, err := workload.ByNames(names...)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}

	runFederated := func() error {
		u := units[0]
		clients := make([]fed.Client, len(sc.Devices))
		for i := range sc.Devices {
			clients[i] = newTracedDevice(o, int64(idFedDevice+i+10*scIndex), specs[i], u.devices[i])
		}
		global := core.NewController(o.Core, newRNG(o.Seed, idFedInit, int64(scIndex))).ModelParams()
		g := append([]float64(nil), global...)
		u.round = u.rec.begin(spRound, noParent, 1)
		return fed.RunParallel(g, clients, o.Rounds, width, func(round int, g []float64) {
			u.hook(round, g, o.Rounds, idEval, int64(scIndex), 0)
		})
	}
	runLocal := func(d int) error {
		u := units[d+1]
		dev := newTracedDevice(o, int64(idLocalDevice+d+10*scIndex), specs[d], u.devices[0])
		local := core.NewController(o.Core, newRNG(o.Seed, idLocalInit, int64(scIndex), int64(d))).ModelParams()
		g := append([]float64(nil), local...)
		u.round = u.rec.begin(spRound, noParent, 1)
		return fed.Run(g, []fed.Client{dev}, o.Rounds, func(round int, g []float64) {
			u.hook(round, g, o.Rounds, idEval, int64(scIndex), int64(d+1))
		})
	}
	err := par.ForEach(width, len(units), func(unit int) error {
		if unit == 0 {
			return runFederated()
		}
		return runLocal(unit - 1)
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	// The traces are assigned field by field, as RunScenario does, so the
	// privacytaint analysis sees evaluation results stored in result
	// fields rather than flowing into the result value itself.
	res := &experiment.ScenarioResult{Scenario: sc}
	res.Fed = units[0].evals
	res.Local = make([][]experiment.RoundEval, len(sc.Devices))
	for d := range sc.Devices {
		res.Local[d] = units[d+1].evals
	}
	return res, nil
}

// tracedFig3 is experiment.RunFig3 with spans; it returns the result and
// the run's merged spans.
func tracedFig3(o experiment.Options, rt *runTrace) (*experiment.Fig3Result, []span, error) {
	scenarios := experiment.TableII()
	width := o.Parallelism
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	units := make([][]*tracedUnit, len(scenarios))
	for i, sc := range scenarios {
		units[i] = make([]*tracedUnit, 1+len(sc.Devices))
		for u := range units[i] {
			n := 1
			if u == 0 {
				n = len(sc.Devices)
			}
			tu := &tracedUnit{o: o, rec: rt.recorder()}
			for d := 0; d < n; d++ {
				tu.devices = append(tu.devices, rt.recorder())
			}
			units[i][u] = tu
		}
	}
	slots := make([]*experiment.ScenarioResult, len(scenarios))
	err := par.ForEach(width, len(scenarios), func(i int) error {
		res, err := tracedScenario(o, i, scenarios[i], units[i])
		if err != nil {
			return err
		}
		slots[i] = res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var spans []span
	for _, sc := range units {
		for _, u := range sc {
			spans = merge(spans, u.rec, u.devices)
		}
	}
	return &experiment.Fig3Result{Scenarios: slots}, spans, nil
}
