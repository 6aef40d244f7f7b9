package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/word"
)

// The server settings are dbserve's and dbcluster's defaults: shards =
// GOMAXPROCS, a 1024-deep admission queue, a 4096-answer cache, a
// 100 ms deadline, tracing off.
const (
	queueDepth = 1024
	cacheSize  = 4096
	deadline   = 100 * time.Millisecond
	warmup     = time.Second // fixed closed-loop warm-up before timing
)

func serveConfig(reg *obs.Registry) serve.Config {
	return serve.Config{QueueDepth: queueDepth, CacheSize: cacheSize, DefaultDeadline: deadline, Registry: reg}
}

// system is a booted service the closed loop talks to.
type system struct {
	addr   string          // query address all connections use
	regs   []*obs.Registry // one per node; regs[0] is the entry node
	counts func() []serve.Counts
	close  func()
}

// serveWorkload describes one closed-loop workload over the service.
type serveWorkload struct {
	name  string
	pool  []frame
	next  [connections]func() int // request stream of each connection
	probe frame                   // first-answer query of each boot, not in pool
	boot  func(probe *frame) (*system, error)
	// warm, when set, runs before the fixed warm-up (the cache fill of
	// scalar-hot).
	warm func(w *serveWorkload, sys *system, clients []*serve.Client, rep *report) error
	// keepEvery keeps every n-th frame's answers of each connection for
	// the off-clock check; odd, so it walks every residue of a cyclic
	// pool.
	keepEvery int64
	// hits marks a workload whose timed phase is all cache hits, so a
	// replayed query may be repeated without changing what it costs.
	hits bool
	// warmFrames are unrelated frames the engine replay warms its
	// cache with before replaying sampled frames that should miss.
	warmFrames []frame
	// warmMisses is the cache misses the scalar-hot fill cost.
	warmMisses int64
	// window is the width of the timed phase's windows: long enough
	// for ~1000 round trips in each.
	window time.Duration
}

// bootServer starts one server on an ephemeral loopback port and
// returns once it has answered probe correctly.
func bootServer(probe *frame) (*system, error) {
	reg := obs.NewRegistry()
	srv := serve.NewServer(serveConfig(reg))
	ln, err := serve.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed once Close runs
	}()
	sys := &system{
		addr:   ln.Addr().String(),
		regs:   []*obs.Registry{reg},
		counts: func() []serve.Counts { return []serve.Counts{srv.Counts()} },
		close: func() {
			srv.Close()
			<-done
		},
	}
	if err := askOnce(sys.addr, probe); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// clusterIDs are evenly spaced in the default DG(2,16) identifier
// space, so each node owns a third of the keys.
var clusterIDs = [...]string{"0000000000000000", "0101010101010101", "1010101010101010"}

// bootCluster starts three nodes on ephemeral loopback ports (node 0
// first, the others joining through it), waits until every node sees
// all three, and returns once node 0 has answered probe correctly.
func bootCluster(probe *frame) (*system, error) {
	var nodes []*cluster.Node
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	regs := make([]*obs.Registry, len(clusterIDs))
	for i, id := range clusterIDs {
		regs[i] = obs.NewRegistry()
		cfg := cluster.Config{
			ID:          id,
			ClientAddr:  "127.0.0.1:0",
			PeerAddr:    "127.0.0.1:0",
			Transport:   serve.TCP{},
			Replication: 1,
			Serve:       serveConfig(regs[i]),
		}
		if i > 0 {
			cfg.Seeds = []string{nodes[0].PeerAddr()}
		}
		n, err := cluster.New(cfg)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		nodes = append(nodes, n)
	}
	if err := waitMembers(nodes, 10*time.Second); err != nil {
		closeAll()
		return nil, err
	}
	sys := &system{
		addr: nodes[0].ClientAddr(),
		regs: regs,
		counts: func() []serve.Counts {
			cs := make([]serve.Counts, len(nodes))
			for i, n := range nodes {
				cs[i] = n.Counts()
			}
			return cs
		},
		close: closeAll,
	}
	if err := askOnce(sys.addr, probe); err != nil {
		closeAll()
		return nil, err
	}
	return sys, nil
}

// waitMembers waits until every node holds the same membership view
// (version and origin) listing all of them.
func waitMembers(nodes []*cluster.Node, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		first := nodes[0].Membership()
		same := len(first.Members) == len(nodes)
		for _, n := range nodes[1:] {
			m := n.Membership()
			if m.Version != first.Version || m.Origin != first.Origin || len(m.Members) != len(nodes) {
				same = false
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster of %d did not converge within %v", len(nodes), timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// cyclic returns a request stream that walks pool indices [lo, hi) in
// order, over and over.
func cyclic(lo, hi int) func() int {
	i := lo
	return func() int {
		v := i
		if i++; i == hi {
			i = lo
		}
		return v
	}
}

// distinctWords draws n distinct words of DG(d,k).
func distinctWords(rng *rand.Rand, d, k, n int) []word.Word {
	seen := map[string]bool{}
	out := make([]word.Word, 0, n)
	for len(out) < n {
		w := word.Random(d, k, rng)
		if !seen[w.String()] {
			seen[w.String()] = true
			out = append(out, w)
		}
	}
	return out
}

// hotSet is the scalar-hot vertex pool: 3·32² = 3072 distinct answers,
// which fit the default 4096-answer cache.
const hotSet = 32

func scalarHot(seed int64) *serveWorkload {
	rng := rand.New(rand.NewSource(seed))
	vs := distinctWords(rng, 2, 10, hotSet+1)
	hot, outside := vs[:hotSet], vs[hotSet]
	w := &serveWorkload{name: "scalar-hot", boot: bootServer, keepEvery: 61, hits: true, window: time.Second}
	kinds := []serve.Kind{serve.KindRoute, serve.KindNextHop, serve.KindDistance}
	for _, kind := range kinds {
		for _, s := range hot {
			for _, d := range hot {
				w.pool = append(w.pool, scalarFrame(kind, s, d))
			}
		}
	}
	// at is the pool index of (kind, s, d), in the order built above.
	at := func(kind serve.Kind, s, d int) int {
		ki := 0
		switch kind {
		case serve.KindNextHop:
			ki = 1
		case serve.KindDistance:
			ki = 2
		}
		return (ki*hotSet+s)*hotSet + d
	}
	for c := range w.next {
		r := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
		w.next[c] = func() int { return at(pickKind(r), r.Intn(hotSet), r.Intn(hotSet)) }
	}
	w.probe = scalarFrame(serve.KindDistance, outside, hot[0])
	w.warm = fillHotCache
	return w
}

// fillHotCache asks every hot-set query once, checks each answer and
// records how many cache misses the fill cost (3072 expected).
func fillHotCache(w *serveWorkload, sys *system, clients []*serve.Client, rep *report) error {
	before := sys.regs[0].Snapshot()
	c := &loopConn{client: clients[0], next: cyclic(0, len(w.pool))}
	c.resetUntraced(1)
	closedLoopCount(c, w.pool, int64(len(w.pool)))
	if c.failed > 0 {
		return fmt.Errorf("cache fill: %d of %d queries failed", c.failed, c.queries)
	}
	wrong, err := checkKept([]*loopConn{c}, w.pool)
	if wrong > 0 {
		rep.wrong += wrong
		rep.note("cache fill: %d wrong answers, first: %v", wrong, err)
	}
	d := sys.regs[0].Snapshot().Diff(before)
	misses, hits := d.Counter("dn_serve_cache_misses_total"), d.Counter("dn_serve_cache_hits_total")
	w.warmMisses = misses
	rep.note("cache fill: %d misses, %d hits over %d distinct queries", misses, hits, len(w.pool))
	return nil
}

const (
	batchK      = 128 // DG(2,128): a 128-bit overlay identifier space
	batchSize   = 64
	batchFrames = 128 // per connection; reuse distance 256 frames ≫ the 64 the cache holds
)

func batchK128(seed int64) *serveWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &serveWorkload{name: "batch-k128", boot: bootServer, keepEvery: 127, window: 2 * time.Second}
	for i := 0; i < connections*batchFrames; i++ {
		w.pool = append(w.pool, batchFrame(rng, 2, batchK, batchSize))
	}
	for c := range w.next {
		w.next[c] = cyclic(c*batchFrames, (c+1)*batchFrames)
	}
	w.probe = batchFrame(rng, 2, batchK, batchSize)
	for i := 0; i < cacheSize/batchSize; i++ {
		w.warmFrames = append(w.warmFrames, batchFrame(rng, 2, batchK, batchSize))
	}
	return w
}

// clusterPool is each connection's cyclic stream length: uniform
// DG(2,10) pairs, so the reuse distance (2·16384) dwarfs the caches.
const clusterPool = 16384

func clusterForward(seed int64) *serveWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &serveWorkload{name: "cluster-forward", boot: bootCluster, keepEvery: 61, window: time.Second}
	uniform := func() frame { return scalarFrame(pickKind(rng), word.Random(2, 10, rng), word.Random(2, 10, rng)) }
	for i := 0; i < connections*clusterPool; i++ {
		w.pool = append(w.pool, uniform())
	}
	for c := range w.next {
		w.next[c] = cyclic(c*clusterPool, (c+1)*clusterPool)
	}
	w.probe = uniform()
	for i := 0; i < cacheSize; i++ {
		w.warmFrames = append(w.warmFrames, uniform())
	}
	return w
}

func runScalarHot(o options) (*report, error)      { return runServe(scalarHot(o.seed), o) }
func runBatchK128(o options) (*report, error)      { return runServe(batchK128(o.seed), o) }
func runClusterForward(o options) (*report, error) { return runServe(clusterForward(o.seed), o) }
