package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fedpower/internal/fed"
)

// Federation session sizes. Every session repeats the deployment's set-up
// (listen, dial, join, warm-up round) so set-up time is sampled once per
// session, and its final model is checked against an in-process replay.
const (
	tcpDevices       = 2
	tcpSessionRounds = 2000
	// tcpDeadline is the resilience scenario's deadline for the round,
	// write and join phases: far above a loopback round, so it never
	// fires, but it keeps the deadline bookkeeping on the measured path.
	tcpDeadline = 30 * time.Second
)

// session is what one federation session measured.
type session struct {
	setup     time.Duration   // session start → round 1 committed
	rounds    []time.Duration // steady-state round latencies (rounds 2..R)
	timed     time.Duration   // wall time of the steady-state rounds
	cpu       time.Duration   // process CPU time over the steady-state rounds
	mallocs   uint64          // heap allocations over the steady-state rounds
	allocated uint64          // heap bytes allocated over the same window
	gcs       uint32          // GC cycles over the same window
	committed int
	bytesSent int64
	bytesRecv int64
	drops     int64
	rejoins   int64
	attempted int // device-rounds
	failed    int
	err       error // the session's failures: an abort, device errors, drops or a failed check
	spans     []span
}

// roundClock records the committed-round timeline from a round hook. Round
// 1 is the warm-up: the clock starts the steady-state window when it
// commits and samples every later round hook to hook.
type roundClock struct {
	start     time.Time
	last      time.Time
	setup     time.Duration
	rounds    []time.Duration
	cpu0      time.Duration
	ms0       runtime.MemStats
	ms1       runtime.MemStats
	cpu1      time.Duration
	total     int
	committed int
	rec       *recorder // nil when untraced
	lastNs    int64
}

// newRoundClock starts a session's clock; with rt set it also records a
// fed.round span per steady-state round.
func newRoundClock(start time.Time, total int, rt *runTrace) *roundClock {
	c := &roundClock{start: start, total: total, rounds: make([]time.Duration, 0, total)}
	if rt != nil {
		c.rec = rt.recorder()
	}
	return c
}

func (c *roundClock) hook(round int, _ []float64) {
	c.committed = round
	if round == 1 {
		runtime.ReadMemStats(&c.ms0)
		c.cpu0 = processCPU()
		c.last = time.Now()
		c.setup = c.last.Sub(c.start)
		if c.rec != nil {
			c.lastNs = c.rec.now()
		}
		return
	}
	now := time.Now()
	c.rounds = append(c.rounds, now.Sub(c.last))
	c.last = now
	if c.rec != nil {
		ns := c.rec.now()
		c.rec.add(spRound, c.lastNs, ns, noParent, round)
		c.lastNs = ns
	}
	if round == c.total {
		c.cpu1 = processCPU()
		runtime.ReadMemStats(&c.ms1)
	}
}

// fill copies the clock's measurements into s.
func (c *roundClock) fill(s *session) {
	s.setup = c.setup
	s.rounds = c.rounds
	s.committed = c.committed
	for _, r := range c.rounds {
		s.timed += r
	}
	if c.committed == c.total && c.total > 1 {
		s.cpu = c.cpu1 - c.cpu0
		s.mallocs = c.ms1.Mallocs - c.ms0.Mallocs
		s.allocated = c.ms1.TotalAlloc - c.ms0.TotalAlloc
		s.gcs = c.ms1.NumGC - c.ms0.NumGC
	}
}

// tcpSession runs one federation over loopback TCP: one fed.Server, two
// devices dialled with the dense codec, quorum all, non-zero deadlines and
// default Parallelism. With rt set, every device and round is traced.
func tcpSession(rng *rand.Rand, rt *runTrace) session {
	runtime.GC()
	start := time.Now()
	s := session{attempted: tcpDevices * tcpSessionRounds}
	initial, trainers := federationInputs(rng, tcpDevices)

	srv, err := fed.NewServer("127.0.0.1:0", tcpDevices, tcpSessionRounds)
	if err != nil {
		s.failed, s.err = s.attempted, err
		return s
	}
	srv.RoundTimeout, srv.WriteTimeout, srv.JoinTimeout = tcpDeadline, tcpDeadline, tcpDeadline
	srv.Codec = fed.DenseCodec()

	clock := newRoundClock(start, tcpSessionRounds, rt)
	clients, devRecs := asClients(trainers, rt)

	conns := make([]*fed.Conn, tcpDevices)
	for i := range conns {
		conns[i], err = fed.DialCodec(srv.Addr(), uint32(i+1), fed.DenseCodec())
		if err != nil {
			for _, c := range conns[:i] {
				_ = c.Close()
			}
			_ = srv.Close()
			s.failed, s.err = s.attempted, err
			return s
		}
	}
	finals := make([][]float64, tcpDevices)
	devErrs := make([]error, tcpDevices)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			finals[i], devErrs[i] = conns[i].Participate(clients[i])
			_ = conns[i].Close()
		}(i)
	}
	final, serveErr := srv.Serve(initial, clock.hook)
	wg.Wait()

	clock.fill(&s)
	s.bytesSent, s.bytesRecv = srv.BytesSent(), srv.BytesReceived()
	s.drops, s.rejoins = srv.Drops(), srv.Rejoins()
	// A device-round fails when its round never committed, its device was
	// dropped or gave up; a failed check fails the whole session.
	s.failed = tcpDevices*(tcpSessionRounds-s.committed) + int(s.drops)
	for _, err := range devErrs {
		if err != nil {
			s.failed++
		}
	}
	s.err = errors.Join(append(devErrs, serveErr)...)
	if s.drops != 0 || s.rejoins != 0 {
		s.err = errors.Join(s.err, fmt.Errorf("%d drops, %d rejoins", s.drops, s.rejoins))
	}
	if s.err == nil {
		if s.err = checkTCP(initial, trainers, final, finals); s.err != nil {
			s.failed = s.attempted
		}
	}
	s.failed = min(s.failed, s.attempted)
	if rt != nil {
		s.spans = merge(nil, clock.rec, devRecs)
	}
	return s
}

// checkTCP requires the final model to equal the in-process replay bit
// for bit, and every device's copy of it, which crossed the wire as
// float32, to equal the replay's float32 rounding.
func checkTCP(initial []float64, trainers []*synthTrainer, final []float64, copies [][]float64) error {
	want, err := replayFlat(initial, trainers, tcpSessionRounds)
	if err != nil {
		return err
	}
	if err := sameBits(final, want); err != nil {
		return fmt.Errorf("final model vs in-process replay: %w", err)
	}
	wire := make([]float64, len(want))
	for i, v := range want {
		wire[i] = float64(float32(v))
	}
	for i, c := range copies {
		if err := sameBits(c, wire); err != nil {
			return fmt.Errorf("device %d final model vs replay: %w", i, err)
		}
	}
	return nil
}

// replayFlat runs the federation in process over the same trainers:
// fed.RunParallelCodec with the dense codec, which emulates the wire's
// float32 rounding exactly, so a TCP federation and any fed.RunTree over
// dense links must end on its model bit for bit.
func replayFlat(initial []float64, trainers []*synthTrainer, rounds int) ([]float64, error) {
	want := append([]float64(nil), initial...)
	clients, _ := asClients(trainers, nil)
	if err := fed.RunParallelCodec(want, clients, rounds, runtime.GOMAXPROCS(0), fed.DenseCodec(), nil); err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	return want, nil
}

// sameBits reports the first parameter whose bits differ.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d parameters, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("parameter %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
