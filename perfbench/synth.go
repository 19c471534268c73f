package main

import (
	"math/rand"

	"fedpower/internal/core"
	"fedpower/internal/experiment"
	"fedpower/internal/fed"
)

// splitmix is the SplitMix64 finaliser, used to derive trainer
// perturbations as a pure function of their coordinates.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// synthTrainer is a synthetic federated device: its update for a round is
// the received global model plus a small perturbation that is a pure
// function of (trainer seed, round, parameter index). Two federations over
// the same trainers therefore see identical updates, whatever transport
// or topology carries them, which is what the bit-for-bit checks rely on.
// It returns its own buffer, as a real device returns its live parameter
// vector, so it allocates nothing after the first round.
type synthTrainer struct {
	seed uint64
	out  []float64
}

func (t *synthTrainer) TrainRound(round int, global []float64) ([]float64, error) {
	if cap(t.out) < len(global) {
		t.out = make([]float64, len(global))
	}
	out := t.out[:len(global)]
	base := splitmix(t.seed ^ uint64(round)<<32)
	for j, g := range global {
		u := float64(splitmix(base+uint64(j))>>11) / (1 << 53)
		out[j] = g + (u-0.5)*1e-3
	}
	return out, nil
}

// federationInputs generates a federation's inputs from rng: the initial
// global model (a freshly initialised controller of the paper's shape, so
// frames have the paper's size) and one synthetic trainer per device.
func federationInputs(rng *rand.Rand, devices int) ([]float64, []*synthTrainer) {
	o := experiment.DefaultOptions()
	initial := core.NewController(o.Core, rand.New(rand.NewSource(rng.Int63()))).ModelParams()
	trainers := make([]*synthTrainer, devices)
	for i := range trainers {
		trainers[i] = &synthTrainer{seed: uint64(rng.Int63())}
	}
	return append([]float64(nil), initial...), trainers
}

// asClients presents the trainers as federated clients; with rt set each
// is traced into a recorder of its own, returned in trainer order.
func asClients(trainers []*synthTrainer, rt *runTrace) ([]fed.Client, []*recorder) {
	clients := make([]fed.Client, len(trainers))
	var recs []*recorder
	for i, t := range trainers {
		if rt == nil {
			clients[i] = t
			continue
		}
		rec := rt.recorder()
		recs = append(recs, rec)
		clients[i] = &tracedTrainer{t: t, rec: rec}
	}
	return clients, recs
}

// tracedTrainer records a device.train span around every steady-state
// round of a synthetic trainer, and the device.wait gap since it returned
// its previous update. Each traced trainer owns its recorder.
type tracedTrainer struct {
	t       *synthTrainer
	rec     *recorder
	lastEnd int64
}

func (tt *tracedTrainer) TrainRound(round int, global []float64) ([]float64, error) {
	start := tt.rec.now()
	out, err := tt.t.TrainRound(round, global)
	end := tt.rec.now()
	// Round 1 is the warm-up round; it is not measured.
	if round > 1 {
		tt.rec.add(spWait, tt.lastEnd, start, noParent, round)
		tt.rec.add(spTrain, start, end, noParent, round)
	}
	tt.lastEnd = end
	return out, err
}
