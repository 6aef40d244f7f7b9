package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/word"
)

// The sim workload: no server, one goroutine. Each simulation round
// runs DG(2,10) store-and-forward (network.RunOpenLoop) and then
// DG(2,10) bufferless deflection with the layer-aware policy
// (deflect.RunLoad), both at 0.05 messages per site per round. A
// "query" is a delivered message and a round's latency is the wall
// time of its two engine calls. The round sizes give each engine about
// half of the time at the commit that introduced the benchmark.
const (
	simD, simK       = 2, 10
	simRate          = 0.05
	simOpenRounds    = 300
	simDeflectRounds = 1
	simWindow        = 2 * time.Second // ~7 rounds
)

// simRound is one simulation round's results and engine times.
type simRound struct {
	open             network.OpenLoopResult
	load             deflect.LoadResult
	openDur, loadDur time.Duration
}

func runSimRound(seed int64, openRounds, deflectRounds int) (simRound, error) {
	var r simRound
	var err error
	t0 := time.Now()
	r.open, err = network.RunOpenLoop(network.OpenLoopConfig{D: simD, K: simK, Rate: simRate, Rounds: openRounds, Seed: seed})
	if err != nil {
		return r, fmt.Errorf("open loop: %w", err)
	}
	t1 := time.Now()
	r.load, err = deflect.RunLoad(deflect.LoadConfig{
		D: simD, K: simK, Policy: deflect.PolicyLayerAware{},
		Rate: simRate, Rounds: deflectRounds, Seed: seed,
	})
	if err != nil {
		return r, fmt.Errorf("deflection: %w", err)
	}
	r.openDur, r.loadDur = t1.Sub(t0), time.Since(t1)
	return r, nil
}

// check asserts the round's conservation identities and returns the
// messages offered and delivered.
func (r simRound) check(rep *report) (offered, delivered int64) {
	o, l := r.open, r.load
	if o.Delivered != o.Offered || o.Saturated {
		rep.breakf("open loop: delivered %d of %d offered (saturated %v)", o.Delivered, o.Offered, o.Saturated)
	}
	if l.Injected != l.Delivered+l.GuardDropped+l.Inflight {
		rep.breakf("deflection: injected %d != delivered %d + guard %d + inflight %d", l.Injected, l.Delivered, l.GuardDropped, l.Inflight)
	}
	if l.Offered != l.Injected+l.Refused {
		rep.breakf("deflection: offered %d != injected %d + refused %d", l.Offered, l.Injected, l.Refused)
	}
	return int64(o.Offered + l.Offered), int64(o.Delivered + l.Delivered)
}

func simSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// simRecord accumulates the rounds of one phase.
type simRecord struct {
	rounds             []simRound
	win                *windows
	cpu                []time.Duration // per round
	offered, delivered int64
}

func (s *simRecord) run(rep *report, seed int64, first int, dur time.Duration) error {
	s.win = newWindows(dur, simWindow)
	s.win.start = time.Now()
	end := s.win.start.Add(dur)
	for i := first; time.Now().Before(end); i++ {
		cpu0 := processCPU()
		r, err := runSimRound(simSeed(seed, i), simOpenRounds, simDeflectRounds)
		if err != nil {
			return err
		}
		s.rounds = append(s.rounds, r)
		o, d := r.check(rep)
		s.win.add(time.Now(), r.openDur+r.loadDur, d)
		s.cpu = append(s.cpu, processCPU()-cpu0)
		s.offered += o
		s.delivered += d
	}
	return nil
}

// figures are the sim phase's end-to-end numbers. Round latency
// quantiles are medians over windows; throughput and CPU per message
// are medians over rounds, since a window holds only a few rounds.
func (s *simRecord) figures() figures {
	f := summarize([]*windows{s.win}, nil)
	var qps, cpu []float64
	for i, r := range s.rounds {
		d := float64(r.open.Delivered + r.load.Delivered)
		qps = append(qps, d/(r.openDur+r.loadDur).Seconds())
		cpu = append(cpu, float64(s.cpu[i].Nanoseconds())/d)
	}
	f.qps, f.cpu, f.winQPS = median(qps), median(cpu), qps
	return f
}

func (s *simRecord) split() (open, load time.Duration) {
	for _, r := range s.rounds {
		open += r.openDur
		load += r.loadDur
	}
	return open, load
}

func runSim(o options) (*report, error) {
	rep := newReport()
	// Set-up: one round of each engine at its smallest size, up to the
	// first delivered and conserved result.
	boot := 0
	_, setup, err := timeSetups(func() (struct{}, error) {
		boot++
		r, err := runSimRound(simSeed(o.seed, -boot), 1, 1)
		if err != nil {
			return struct{}{}, err
		}
		if _, d := r.check(rep); d == 0 {
			return struct{}{}, fmt.Errorf("set-up round delivered nothing")
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceSim(o, rep)
	}
	var rec simRecord
	ps := beginPhase()
	if err := rec.run(rep, o.seed, 0, o.seconds); err != nil {
		return nil, err
	}
	u := ps.end()
	rep.attempted, rep.failed = rec.offered, rec.offered-rec.delivered
	open, load := rec.split()
	rep.note("%d rounds; network engine %.1f%% of engine time, deflection %.1f%%",
		len(rec.rounds), 100*open.Seconds()/(open+load).Seconds(), 100*load.Seconds()/(open+load).Seconds())
	if err := setEndToEnd(rep, rec.delivered, u, rec.figures(), setup); err != nil {
		return nil, err
	}
	return rep, nil
}

// Replay sizes of the traced sim run.
const (
	alg4Pairs  = 2048
	layerDests = 16
)

// traceSim is the traced sim run: half untraced (the overhead
// baseline), half with a root span per round around the two measured
// engine calls, then replays of Algorithm 4 (core.RouteUndirectedLinear,
// every path checked) and of deflect.NewLayers, attributed to the
// engine spans by how many calls each round made.
func traceSim(o options, rep *report) (*report, error) {
	half := o.seconds / 2
	var base simRecord
	ps := beginPhase()
	if err := base.run(rep, o.seed, 0, half); err != nil {
		return nil, err
	}
	qpsU := float64(base.delivered) / ps.end().wall.Seconds()

	var tr simRecord
	recStart := time.Now()
	ps = beginPhase()
	if err := tr.run(rep, o.seed, len(base.rounds), half); err != nil {
		return nil, err
	}
	u := ps.end()
	rep.attempted, rep.failed = tr.offered, tr.offered-tr.delivered

	for _, name := range layerMetricNames {
		rep.set(name, 0, layerUnits[name])
	}
	rep.set("bench.trace_overhead_frac", 1-float64(tr.delivered)/u.wall.Seconds()/qpsU, "frac")
	rep.set("runtime.gc_cpu_frac", u.gcCPU, "frac")

	// Algorithm 4 on seeded uniform pairs, each path checked.
	rng := rand.New(rand.NewSource(o.seed))
	type pair struct{ src, dst word.Word }
	pairs := make([]pair, alg4Pairs)
	for i := range pairs {
		pairs[i] = pair{word.Random(simD, simK, rng), word.Random(simD, simK, rng)}
	}
	paths := make([]core.Path, len(pairs))
	t0 := time.Now()
	for i, p := range pairs {
		path, err := core.RouteUndirectedLinear(p.src, p.dst)
		if err != nil {
			return nil, fmt.Errorf("algorithm 4: %w", err)
		}
		paths[i] = path
	}
	alg4 := float64(time.Since(t0).Nanoseconds()) / float64(len(pairs))
	for i, p := range pairs {
		if err := checkRoute(p.src, p.dst, paths[i]); err != nil {
			rep.wrong++
			rep.failed++
			if rep.wrong == 1 {
				rep.note("first wrong Algorithm 4 path: %v", err)
			}
		}
	}

	// Distance layers toward seeded destinations.
	g, err := graph.DeBruijn(graph.Undirected, simD, simK)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := 0; i < layerDests; i++ {
		if _, err := deflect.NewLayers(g, word.Random(simD, simK, rng)); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	layers := float64(time.Since(t0).Nanoseconds()) / layerDests

	// Spans: measured rounds and engine calls, replayed kernels inside.
	rec := newRecorder()
	sites := math.Pow(simD, simK)
	var openDur, loadDur time.Duration
	var openDelivered, loadDelivered, meanLat float64
	var deflections, hops int64
	at := recStart
	for i, r := range tr.rounds {
		end := at.Add(r.openDur + r.loadDur)
		root := rec.add(rootName, int64(i), -1, at, end, srcMeasured)
		at = end
		ne := rec.child("network.engine", root, r.openDur, srcMeasured)
		rec.child("core.alg4", ne, time.Duration(alg4*float64(r.open.Offered)), srcReplay)
		de := rec.child("deflect.engine", root, r.loadDur, srcMeasured)
		// Each destination's layers are built once per run: expected
		// distinct destinations among the injected messages.
		distinct := sites * (1 - math.Pow(1-1/sites, float64(r.load.Injected)))
		rec.child("deflect.layers", de, time.Duration(layers*distinct), srcReplay)

		openDur += r.openDur
		loadDur += r.loadDur
		openDelivered += float64(r.open.Delivered)
		loadDelivered += float64(r.load.Delivered)
		meanLat += r.open.MeanLatency * float64(r.open.Delivered)
		deflections += r.load.Deflections
		hops += r.load.HopsMoved
	}
	if openDelivered > 0 {
		rep.set("network.ns_per_msg", float64(openDur.Nanoseconds())/openDelivered, "ns")
		rep.set("network.mean_latency_rounds", meanLat/openDelivered, "rounds")
	}
	if loadDelivered > 0 {
		rep.set("deflect.ns_per_msg", float64(loadDur.Nanoseconds())/loadDelivered, "ns")
	}
	if hops > 0 {
		rep.set("deflect.deflection_rate", float64(deflections)/float64(hops), "frac")
	}
	rep.set("deflect.layers_ns", layers, "ns")
	rep.set("core.alg4.route_ns", alg4, "ns")
	rep.set("sim.network_time_frac", openDur.Seconds()/(openDur+loadDur).Seconds(), "frac")
	rep.note("traced phase: %d rounds, %d messages delivered of %d offered", len(tr.rounds), tr.delivered, tr.offered)
	setLedger(rep, rec)
	path, err := rec.write(filepath.Join(o.outDir, "spans"), fmt.Sprintf("sim-seed%d.jsonl", o.seed))
	if err != nil {
		return nil, err
	}
	rep.note("%d spans written to %s", len(rec.spans), path)
	return rep, nil
}
