package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Registry names the benchmark reads (README § Observability).
const (
	regSent      = "dn_serve_sent_total"
	regForwarded = "dn_serve_forwarded_total"
	regFwdIn     = "dn_serve_forwarded_in_total"
	regDegraded  = "dn_serve_degraded_total"
	regShed      = "dn_serve_shed_total"
	regHits      = "dn_serve_cache_hits_total"
	regMisses    = "dn_serve_cache_misses_total"
	regEvictions = "dn_serve_cache_evictions_total"
	regQueue     = "dn_serve_queue_depth"
	regLatency   = "dn_serve_latency_ns"
)

// runServe runs one closed-loop workload: setupRuns boots (the last
// one stays up), the fixed warm-up, then either the untraced timed
// phase or the traced run.
func runServe(w *serveWorkload, o options) (*report, error) {
	rep := newReport()
	sys, setup, err := timeSetups(func() (*system, error) { return w.boot(&w.probe) }, func(s *system) { s.close() })
	if err != nil {
		return nil, err
	}
	var closeOnce sync.Once
	closeSys := func() { closeOnce.Do(sys.close) }
	defer closeSys()

	conns := make([]*loopConn, connections)
	for i := range conns {
		c, err := serve.Dial(sys.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = &loopConn{client: c, next: w.next[i]}
	}
	if w.warm != nil {
		clients := make([]*serve.Client, len(conns))
		for i, c := range conns {
			clients[i] = c.client
		}
		if err := w.warm(w, sys, clients, rep); err != nil {
			return nil, err
		}
	}
	for _, c := range conns {
		c.resetUntraced(w.keepEvery)
	}
	closedLoop(conns, w.pool, warmup, warmup)

	if o.trace {
		return traceServe(w, o, sys, closeSys, conns, rep)
	}
	for _, c := range conns {
		c.resetUntraced(w.keepEvery)
	}
	ps := beginPhase()
	cpu := closedLoop(conns, w.pool, o.seconds, w.window)
	u := ps.end()
	checkConservation(sys, rep)
	_, queries, failed := totals(conns)
	wrong, first := checkKept(conns, w.pool)
	if wrong > 0 {
		rep.note("first wrong answer: %v", first)
	}
	rep.attempted, rep.wrong, rep.failed = queries, wrong, failed+wrong
	if err := setEndToEnd(rep, queries-failed-wrong, u, summarize(windowsOf(conns), cpu), setup); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkConservation asserts the serve identity on every node and, for
// a cluster, that every forward out was a forward in somewhere.
func checkConservation(sys *system, rep *report) {
	var fwd, fwdIn int64
	cs := sys.counts()
	for i, c := range cs {
		if !c.Conserved() {
			rep.breakf("node %d: sent %d != answered %d + degraded %d + shed %d + forwarded %d",
				i, c.Sent, c.Answered, c.Degraded, c.Shed, c.Forwarded)
		}
		fwd += c.Forwarded
		fwdIn += c.ForwardedIn
	}
	if fwd != fwdIn {
		rep.breakf("cluster: forwarded %d != forwarded_in %d", fwd, fwdIn)
	}
}

func snapshots(sys *system) []obs.Snapshot {
	s := make([]obs.Snapshot, len(sys.regs))
	for i, r := range sys.regs {
		s[i] = r.Snapshot()
	}
	return s
}

func diffs(after, before []obs.Snapshot) []obs.Snapshot {
	d := make([]obs.Snapshot, len(after))
	for i := range after {
		d[i] = after[i].Diff(before[i])
	}
	return d
}

// queueSampler polls the entry node's queue-depth gauge every
// millisecond of the traced phase.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	max  float64
	n    int
}

func startQueueSampler(reg *obs.Registry) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	g := reg.Gauge(regQueue)
	go func() {
		defer close(q.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				v := g.Value()
				q.sum += v
				q.n++
				if v > q.max {
					q.max = v
				}
			}
		}
	}()
	return q
}

// finish stops the sampler and returns the mean and max depth.
func (q *queueSampler) finish() (mean, max float64) {
	close(q.stop)
	<-q.done
	if q.n == 0 {
		return 0, 0
	}
	return q.sum / float64(q.n), q.max
}

// Replay sample sizes of a traced run: the kept responses whose pool
// frame was not replayed yet, up to replayFrames.
const (
	replayFrames      = 512
	replayBatchFrames = 64
	hitEngineReps     = 32
)

// traceServe is the traced run: half the time untraced (the overhead
// baseline), half traced with every answer kept and checked, then the
// layer replays, the registry-derived layers and the ledger.
func traceServe(w *serveWorkload, o options, sys *system, closeSys func(), conns []*loopConn, rep *report) (*report, error) {
	half := o.seconds / 2
	for _, c := range conns {
		c.resetUntraced(w.keepEvery)
	}
	ps := beginPhase()
	closedLoop(conns, w.pool, half, w.window)
	uU := ps.end()
	_, qU, fU := totals(conns)
	qpsU := float64(qU-fU) / uU.wall.Seconds()
	wrongU, firstU := checkKept(conns, w.pool)
	if wrongU > 0 {
		rep.note("first wrong answer of the untraced half: %v", firstU)
	}

	before := snapshots(sys)
	qs := startQueueSampler(sys.regs[0])
	limit := replayFrames
	if w.pool[0].batch() {
		limit = replayBatchFrames
	}
	for _, c := range conns {
		c.resetTraced(limit)
	}
	ps = beginPhase()
	closedLoop(conns, w.pool, half, w.window)
	u := ps.end()
	depthMean, depthMax := qs.finish()
	d := diffs(snapshots(sys), before)
	checkConservation(sys, rep)
	closeSys()

	frames, queries, failed := totals(conns)
	wrong, first := checkKept(conns, w.pool)
	if wrong > 0 {
		rep.note("first wrong answer: %v", first)
	}
	good := queries - failed - wrong
	qpsT := float64(good) / u.wall.Seconds()
	rep.attempted, rep.wrong, rep.failed = qU+queries, wrongU+wrong, fU+failed+wrongU+wrong
	rep.note("traced phase: %d frames, %d queries, every answer checked, %d wrong", frames, queries, wrong)

	for _, name := range layerMetricNames {
		rep.set(name, 0, layerUnits[name])
	}
	rep.set("bench.trace_overhead_frac", 1-qpsT/qpsU, "frac")
	rep.set("runtime.gc_cpu_frac", u.gcCPU, "frac")
	rep.set("serve.queue.depth_mean", depthMean, "count")
	rep.set("serve.queue.depth_max", depthMax, "count")
	rep.set("serve.cache.warmup_misses", float64(w.warmMisses), "count")

	// Root spans: every request of the traced phase.
	rec := newRecorder()
	roots := make([][]int32, len(conns))
	var reqID int64
	for ci, c := range conns {
		roots[ci] = make([]int32, len(c.roots))
		for i, r := range c.roots {
			roots[ci][i] = rec.add(rootName, reqID, -1, r.start, r.end, srcMeasured)
			reqID++
		}
	}

	// The replay sample: distinct pool frames, deterministic.
	var pick []sampled
	var pickRoot []int32
	seen := map[int]bool{}
	for ci, c := range conns {
		for i := 0; i < len(c.sample) && len(pick) < limit*(ci+1)/len(conns); i++ {
			s := c.sample[i]
			if seen[s.idx] || !usable(s.resp) {
				continue
			}
			seen[s.idx] = true
			pick = append(pick, s)
			pickRoot = append(pickRoot, roots[ci][s.root])
		}
	}
	if len(pick) == 0 {
		return nil, fmt.Errorf("traced phase kept no usable answers")
	}
	fs := make([]*frame, len(pick))
	resps := make([]serve.Response, len(pick))
	var pairs []serve.Query
	for i, s := range pick {
		fs[i] = &w.pool[s.idx]
		resps[i] = s.resp
		pairs = append(pairs, fs[i].qs...)
	}

	wire, wireAllocs, err := replayWire(fs, resps)
	if err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	engWarm, engReps := w.warmFrames, 1
	if w.hits {
		engWarm, engReps = w.pool, hitEngineReps
	}
	eng, err := replayEngine(fs, engWarm, engReps)
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	ks, err := replayKernels(pairs)
	if err != nil {
		return nil, err
	}

	serverMean, forward, missFrac := registryLayers(rep, d, allLatencies(windowsOf(conns)))
	// Replay means and the ledger spans of every replayed request.
	var encReq, decReq, encResp, decResp, engSum, kernSum time.Duration
	var reqBytes, respBytes, nq int
	for i, f := range fs {
		wt := wire[i]
		encReq += wt.encReq
		decReq += wt.decReq
		encResp += wt.encResp
		decResp += wt.decResp
		reqBytes += wt.reqBytes
		respBytes += wt.respBytes
		engSum += eng[i]
		nq += len(f.qs)
		var kern float64
		for _, q := range f.qs {
			kern += ks.kernelNs(q.Kind)
		}
		kernel := time.Duration(kern * missFrac)
		kernSum += kernel

		root := pickRoot[i]
		rec.child("client.encode_req", root, wt.encReq, srcReplay)
		srv := rec.child("serve.server", root, serverMean, srcRegistry)
		rec.child("serve.decode_req", srv, wt.decReq, srcReplay)
		e := rec.child("serve.engine", srv, eng[i], srcReplay)
		rec.child("core.kernels", e, kernel, srcReplay)
		if forward != 0 {
			rec.child("cluster.forward", srv, forward, srcRegistry)
		}
		rec.child("serve.encode_resp", root, wt.encResp, srcReplay)
		rec.child("client.decode_resp", root, wt.decResp, srcReplay)
	}
	n := float64(len(fs))
	rep.set("serve.wire.req_bytes", float64(reqBytes)/n, "bytes")
	rep.set("serve.wire.resp_bytes", float64(respBytes)/n, "bytes")
	rep.set("serve.client.encode_req_ns", float64(encReq)/n, "ns")
	rep.set("serve.wire.decode_req_ns", float64(decReq)/n, "ns")
	rep.set("serve.wire.encode_resp_ns", float64(encResp)/n, "ns")
	rep.set("serve.client.decode_resp_ns", float64(decResp)/n, "ns")
	rep.set("serve.wire.allocs_per_frame", wireAllocs, "count")
	rep.set("serve.engine.ns_per_query", float64(engSum)/float64(nq), "ns")
	rep.set("core.kernels.distance_ns", ks.distNs, "ns")
	rep.set("core.kernels.route_ns", ks.routeNs, "ns")
	rep.set("core.kernels.nexthop_ns", ks.nextNs, "ns")
	rep.set("core.kernels.allocs_per_query", ks.allocs, "count")
	rep.set("core.kernels.tier", float64(ks.tier), "index")
	if good > 0 {
		// The kernels' share of all process CPU per answered query.
		cpuPerQuery := float64(u.cpu.Nanoseconds()) / float64(good)
		rep.set("core.cpu_frac", float64(kernSum)/float64(nq)/cpuPerQuery, "frac")
	}
	rep.note("replayed %d frames (%d queries); kernel tier %v; cache miss share %.4f", len(fs), nq, ks.tier, missFrac)
	setLedger(rep, rec)
	path, err := rec.write(filepath.Join(o.outDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err != nil {
		return nil, err
	}
	rep.note("%d spans written to %s", len(rec.spans), path)
	return rep, nil
}

// registryLayers sets the per-layer metrics read from the nodes'
// registry diffs over the traced phase (d[0] is the entry node) and
// returns what the ledger takes from them: the entry node's mean
// admission-to-answer time, the part of it forwarding adds, and the
// cache miss share.
func registryLayers(rep *report, d []obs.Snapshot, clientLat *hist) (serverMean, forward time.Duration, missFrac float64) {
	entryLat := d[0].Histogram(regLatency)
	var ownerLat obs.HistogramSnapshot
	for _, s := range d[1:] {
		ownerLat = mergeHist(ownerLat, s.Histogram(regLatency))
	}
	sum := func(name string) (t int64) {
		for _, s := range d {
			t += s.CounterSum(name)
		}
		return t
	}
	hits, misses := sum(regHits), sum(regMisses)
	if hits+misses > 0 {
		missFrac = float64(misses) / float64(hits+misses)
		rep.set("serve.cache.hit_ratio", float64(hits)/float64(hits+misses), "frac")
	}
	rep.set("serve.cache.evictions", float64(sum(regEvictions)), "count")
	if all := sum(regSent); all > 0 {
		rep.set("serve.shed_frac", float64(sum(regShed))/float64(all), "frac")
		rep.set("serve.degraded_frac", float64(sum(regDegraded))/float64(all), "frac")
	}
	serverP50 := entryLat.Quantile(0.5) / 1e3
	rep.set("serve.server.latency_p50_us", serverP50, "us")
	rep.set("serve.server.latency_p99_us", entryLat.Quantile(0.99)/1e3, "us")
	rep.set("serve.handoff_us", clientLat.quantile(0.5)/1e3-serverP50, "us")
	serverMean = histMean(entryLat)
	entrySent := d[0].Counter(regSent)
	if len(d) > 1 && entrySent > 0 {
		fwd := d[0].Counter(regForwarded)
		rep.set("cluster.forwarded_frac", float64(fwd)/float64(entrySent), "frac")
		rep.set("cluster.peer_frames_per_query", float64(sum(regFwdIn))/float64(entrySent), "count")
		rep.set("cluster.forward_extra_us", (entryLat.Quantile(0.5)-ownerLat.Quantile(0.5))/1e3, "us")
		forward = serverMean - histMean(ownerLat)
		rep.note("forwarded %d of %d entry requests (%.1f%%)", fwd, entrySent, 100*float64(fwd)/float64(entrySent))
	}
	return serverMean, forward, missFrac
}

func histMean(h obs.HistogramSnapshot) time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.Sum / float64(h.Count))
}

// mergeHist adds two snapshots of the same bucket layout.
func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(a.Counts) == 0 {
		return b
	}
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: append([]int64(nil), a.Counts...), Sum: a.Sum + b.Sum, Count: a.Count + b.Count}
	for i := range out.Counts {
		if i < len(b.Counts) {
			out.Counts[i] += b.Counts[i]
		}
	}
	return out
}
