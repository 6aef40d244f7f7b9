package network

import (
	"errors"
	"math/rand"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/word"
)

// Open-loop load/latency simulation: messages arrive continuously at a
// configured rate (per site per round) for a warm/measure window, and
// the engine reports steady-state latency — the latency-vs-offered-load
// curve that characterizes an interconnection network. Complements the
// closed batch engine (Contention): there the backlog drains, here the
// arrival process pushes the network toward saturation.

// OpenLoopConfig parameterizes an open-loop run.
type OpenLoopConfig struct {
	D, K int
	// Rate is the expected number of new messages per site per round
	// (Bernoulli arrivals per site).
	Rate float64
	// Rounds is the measurement window; messages injected within it
	// are tracked to delivery (the run continues past the window until
	// all tracked messages drain).
	Rounds int
	// LinkCapacity per round; defaults to 1.
	LinkCapacity int
	// Seed drives arrivals, destinations and wildcard resolution.
	Seed int64
	// MaxRounds aborts unstable runs (offered load beyond capacity);
	// defaults to 40·Rounds + 64·k.
	MaxRounds int
}

// OpenLoopResult summarizes an open-loop run.
type OpenLoopResult struct {
	Offered      int // messages injected during the window
	Delivered    int
	MeanLatency  float64 // rounds from injection to delivery
	P95Latency   int
	MaxLatency   int
	MeanSlowdown float64 // latency / hop-count, ≥ 1
	Saturated    bool    // true when the run hit MaxRounds undrained
}

// openMsg is one message of an open-loop run: its walk of vertex ids
// and the round it was injected in.
type openMsg struct {
	walk     []int32
	pos      int
	injected int
}

// RunOpenLoop executes the open-loop simulation. When the offered
// load exceeds what the topology can carry, the run reports
// Saturated=true with statistics over the messages that did deliver.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	n, err := vertexCount(cfg.D, cfg.K)
	if err != nil {
		return OpenLoopResult{}, err
	}
	if cfg.Rate <= 0 {
		return OpenLoopResult{}, errors.New("network: rate must be positive")
	}
	if cfg.Rounds < 1 {
		return OpenLoopResult{}, errors.New("network: need at least one round")
	}
	if cfg.LinkCapacity == 0 {
		cfg.LinkCapacity = 1
	}
	if cfg.LinkCapacity < 1 {
		return OpenLoopResult{}, errors.New("network: link capacity must be positive")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 40*cfg.Rounds + 64*cfg.K
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sites := make([]word.Word, n)
	for i := range sites {
		w, err := word.Unrank(cfg.D, cfg.K, uint64(i))
		if err != nil {
			return OpenLoopResult{}, err
		}
		sites[i] = w
	}
	kn := core.NewKernels(core.KernelConfig{TableBudget: -1}) // no background table builds
	var res OpenLoopResult
	var latency, slowdown stats.Accumulator
	var p95 stats.Histogram
	d := int32(cfg.D)
	// msgs holds the messages in flight, indexed by queued.id; free
	// lists the slots of delivered ones for reuse.
	var msgs []openMsg
	var free []int32
	var q []queued
	arrival := 0
	for round := 1; ; round++ {
		if round > cfg.MaxRounds {
			res.Saturated = true
			break
		}
		// Arrivals during the measurement window.
		if round <= cfg.Rounds {
			for v, src := range sites {
				if rng.Float64() >= cfg.Rate {
					continue
				}
				dst := word.Random(cfg.D, cfg.K, rng)
				route, err := kn.RouteUndirected(src, dst)
				if err != nil {
					return OpenLoopResult{}, err
				}
				res.Offered++
				stamp := arrival
				arrival++
				if len(route) == 0 {
					res.Delivered++
					latency.Add(0)
					slowdown.Add(1)
					if err := p95.Add(0); err != nil {
						return OpenLoopResult{}, err
					}
					continue
				}
				// Wildcard hops draw their digit in hop order.
				walk := make([]int32, len(route)+1)
				walk[0] = int32(v)
				for i, h := range route {
					b := h.Digit
					if h.Wildcard {
						b = byte(rng.Intn(cfg.D))
					}
					walk[i+1] = rankStep(walk[i], h.Type, b, d, n)
				}
				var id int32
				if len(free) > 0 {
					id, free = free[len(free)-1], free[:len(free)-1]
					msgs[id] = openMsg{walk: walk, injected: round}
				} else {
					id = int32(len(msgs))
					msgs = append(msgs, openMsg{walk: walk, injected: round})
				}
				q = append(q, queued{from: walk[0], to: walk[1], id: id, stamp: stamp})
			}
		} else if len(q) == 0 {
			break
		}
		// One synchronous forwarding round (same discipline as the
		// batch engine: per-link FIFO with capacity).
		q, _ = linkRound(q, cfg.LinkCapacity, func(e *queued) bool {
			m := &msgs[e.id]
			m.pos++
			e.stamp = arrival
			arrival++
			if m.pos < len(m.walk)-1 {
				e.from, e.to = m.walk[m.pos], m.walk[m.pos+1]
				return false
			}
			res.Delivered++
			lat := round - m.injected + 1
			latency.Add(float64(lat))
			slowdown.Add(float64(lat) / float64(len(m.walk)-1))
			// stats.Histogram rejects only negatives; lat ≥ 1.
			_ = p95.Add(lat)
			res.MaxLatency = max(res.MaxLatency, lat)
			m.walk = nil
			free = append(free, e.id)
			return true
		})
	}
	res.MeanLatency = latency.Mean()
	res.MeanSlowdown = slowdown.Mean()
	res.P95Latency = p95.Quantile(0.95)
	return res, nil
}
