package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fedpower/internal/fed"
)

// treeSessionRounds is the length of one fleet_tree session; like a TCP
// session, each repeats the set-up and ends in a bit-for-bit check.
const treeSessionRounds = 60

// treeTopology is the fleet: 4 regions × 5 edge aggregators × 25 devices,
// 500 leaves at depth 3.
func treeTopology() *fed.TreeNode { return fed.Uniform(4, 5, 25) }

// treeSession runs one in-process hierarchical federation with fed.RunTree
// over dense-codec links at Parallelism GOMAXPROCS, then checks its final
// model against the flat federation over the same trainers. With rt set,
// every leaf and round is traced.
func treeSession(rng *rand.Rand, rt *runTrace) session {
	runtime.GC()
	start := time.Now()
	topo := treeTopology()
	leaves := topo.LeafCount()
	s := session{attempted: leaves * treeSessionRounds}
	initial, trainers := federationInputs(rng, leaves)

	clock := newRoundClock(start, treeSessionRounds, rt)
	clients, devRecs := asClients(trainers, rt)
	global := append([]float64(nil), initial...)
	err := fed.RunTree(global, clients, topo, fed.TreeConfig{
		Rounds:      treeSessionRounds,
		Parallelism: runtime.GOMAXPROCS(0),
		Codec:       fed.DenseCodec(),
		Hook:        clock.hook,
	})
	clock.fill(&s)
	// Leaf-rounds of uncommitted rounds fail; a failed check fails the
	// whole session.
	s.failed = leaves * (treeSessionRounds - s.committed)
	s.err = err
	if s.err == nil {
		if s.err = checkTree(initial, trainers, global); s.err != nil {
			s.failed = s.attempted
		}
	}
	if rt != nil {
		s.spans = merge(nil, clock.rec, devRecs)
	}
	return s
}

// checkTree requires the tree's final model to equal the flat federation
// over the same trainers in leaf order bit for bit, RunTree's documented
// contract.
func checkTree(initial []float64, trainers []*synthTrainer, got []float64) error {
	want, err := replayFlat(initial, trainers, treeSessionRounds)
	if err != nil {
		return err
	}
	if err := sameBits(got, want); err != nil {
		return fmt.Errorf("tree final model vs flat federation: %w", err)
	}
	return nil
}
